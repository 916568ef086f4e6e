"""Integration: the documentation's claims about the code are true.

DESIGN.md's module inventory and per-experiment index, and the command
lines of every doc, must reference things that exist -- documentation
drift fails loudly here.
"""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_design_module_inventory_exists():
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    # Every "name.py" token in the inventory block must exist somewhere
    # under src/repro.
    mentioned = set(re.findall(r"(\w+)\.py", text))
    present = {
        path.stem
        for directory in ("src/repro", "benchmarks", "tests", "examples")
        for path in (ROOT / directory).rglob("*.py")
    }
    missing = {
        name for name in mentioned if name not in present
    } - {"setup"}  # setup.py lives at the root
    assert not missing, f"DESIGN.md mentions nonexistent modules: {missing}"


def test_design_experiment_commands_are_registered():
    from repro.experiments.runner import REGISTRY

    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    commands = set(
        re.findall(r"python -m repro\.experiments (\w+)", text)
    )
    # "all", "bench-report", "campaign", "list" and "check" are runner
    # subcommands dispatched outside the experiment REGISTRY.
    unknown = commands - set(REGISTRY) - {
        "all", "bench-report", "campaign", "check", "list",
    }
    assert not unknown, f"DESIGN.md references unknown experiments: {unknown}"


def test_design_bench_targets_exist():
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    targets = set(
        re.findall(r"benchmarks/(test_bench_\w+\.py)", text)
    )
    assert targets, "DESIGN.md should name bench targets"
    for target in targets:
        assert (ROOT / "benchmarks" / target).exists(), target


def test_readme_package_table_imports():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    packages = set(re.findall(r"`(repro\.\w+)`", text))
    assert packages
    for package in packages:
        importlib.import_module(package)


def test_experiments_md_records_every_paper_experiment():
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    for exp_id in ("E1", "E2", "E3", "E4", "E5", "E6", "L1", "L2"):
        assert f"### {exp_id}" in text, f"{exp_id} missing from EXPERIMENTS.md"
    assert "REPRODUCED" in text


def test_experiments_md_transcript_is_current_format():
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert "generated by `python -m repro.experiments all" in text
    # No failing checks in the recorded transcript.
    assert "- [ ]" not in text


DOCUMENTED = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md")
SUBCOMMANDS = {"bench-report", "campaign", "check", "list"}
# One command line, with backslash continuations already joined; an
# inline code span, a table cell or a shell comment ends it.
COMMAND = re.compile(r"python -m repro\.experiments[ \t]+([\w-]+)([^`|#\n]*)")
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def documented_commands():
    """``(doc, subcommand, rest of the line)`` for every documented run."""
    for pattern in DOCUMENTED:
        for path in sorted(ROOT.glob(pattern)):
            text = path.read_text(encoding="utf-8").replace("\\\n", " ")
            for sub, rest in COMMAND.findall(text):
                yield path.relative_to(ROOT).as_posix(), sub, rest


def test_documented_commands_use_flags_that_exist(capsys):
    """Every ``--flag`` a doc passes to ``python -m repro.experiments``
    is in the ``--help`` of that subcommand's parser; experiment names
    and ``all`` share the runner's parser."""
    from repro.experiments.runner import REGISTRY, main

    options = {}
    stale = []
    commands = list(documented_commands())
    assert len(commands) > 20
    for doc, sub, rest in commands:
        assert sub in SUBCOMMANDS | set(REGISTRY) | {"all"}, (
            f"{doc}: unknown subcommand {sub!r}"
        )
        parser = sub if sub in SUBCOMMANDS else "all"
        if parser not in options:
            with pytest.raises(SystemExit):
                main(([] if parser == "all" else [parser]) + ["--help"])
            options[parser] = set(FLAG.findall(capsys.readouterr().out))
        stale += [
            f"{doc}: {sub} {flag}"
            for flag in FLAG.findall(rest)
            if flag not in options[parser]
        ]
    assert not stale, f"documented flags that do not exist: {stale}"
