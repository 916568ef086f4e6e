"""Experiment registry and command-line entry point.

Run every experiment::

    python -m repro.experiments all

or one::

    python -m repro.experiments backlog --fast

Execution goes through the :mod:`repro.runtime` engine: experiments
decompose into seed-sharded tasks that run across a process pool of
one worker per usable CPU, capped at the number of experiments with
uncached tasks (``--parallel N`` fixes the count; a single experiment,
a warm cache or one CPU runs serially in-process), with results cached
on disk under ``$REPRO_CACHE_DIR`` when set, else ``.repro-cache/``
(override with ``--cache-dir DIR``, disable with ``--no-cache``), and
a structured run manifest available via ``--json PATH``.

Sibling subcommands (each owns its own flag namespace):

* ``python -m repro.experiments campaign SPEC.json`` runs a
  declarative campaign spec (see :mod:`repro.campaign`);
* ``python -m repro.experiments list`` prints the experiment registry
  and the campaign registries (protocols, channels, adversaries,
  metrics);
* ``python -m repro.experiments check`` runs the bounded model
  checker (see :mod:`repro.checker.cli`);
* ``python -m repro.experiments bench-report`` prints the aggregate
  benchmark trend table from the committed ``BENCH_*.json`` files
  (``--campaigns RUN.json ...`` adds the cross-campaign trend view).

The transcript printed here is what EXPERIMENTS.md records.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any, Callable, Dict, Optional, TypeVar

from repro.experiments import (
    exp_ablation,
    exp_backlog,
    exp_boundness,
    exp_headers,
    exp_hoeffding,
    exp_probabilistic,
    exp_transport,
    exp_window,
)
from repro.experiments.base import ExperimentResult

REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {
    "boundness": exp_boundness.run,
    "headers": exp_headers.run,
    "backlog": exp_backlog.run,
    "probabilistic": exp_probabilistic.run,
    "hoeffding": exp_hoeffding.run,
    "ablation": exp_ablation.run,
    "window": exp_window.run,
    "transport": exp_transport.run,
}

# Experiments the runtime decomposes into independent shards; each
# module exposes ``shards(fast)`` / ``run_shard(params, fast, seed)`` /
# ``merge(payloads, fast, seed)``.  The rest run as one whole task.
SHARDED = {
    "backlog": exp_backlog,
    "probabilistic": exp_probabilistic,
    "hoeffding": exp_hoeffding,
}

Report = TypeVar("Report")


def _validate_kwargs(fast, seed) -> None:
    if not isinstance(fast, bool):
        raise TypeError(
            f"fast must be a bool, got {type(fast).__name__} ({fast!r})"
        )
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise TypeError(
            f"seed must be an int, got {type(seed).__name__} ({seed!r})"
        )


def run_experiment(
    name: str, fast: bool = False, seed: int = 0
) -> ExperimentResult:
    """Run one registered experiment by name."""
    _validate_kwargs(fast, seed)
    if name == "all":
        raise ValueError(
            "run_experiment runs a single experiment; use run_all() "
            "(or `python -m repro.experiments all`) for every one"
        )
    if name not in REGISTRY:
        raise KeyError(
            f"unknown experiment {name!r}; choose from "
            f"{sorted(REGISTRY)}, or 'all' via run_all()"
        )
    return REGISTRY[name](fast=fast, seed=seed)


def run_all(fast: bool = False, seed: int = 0) -> Dict[str, ExperimentResult]:
    """Run every registered experiment; results keyed by name."""
    _validate_kwargs(fast, seed)
    return {
        name: REGISTRY[name](fast=fast, seed=seed)
        for name in sorted(REGISTRY)
    }


def add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Declare the run flags the experiment and campaign CLIs share."""
    parser.add_argument(
        "--fast",
        action="store_true",
        help=(
            "CI-sized grids: smaller experiment grids, or a campaign "
            "spec's fast axis values (used by the test suite)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="root randomness seed"
    )
    parser.add_argument(
        "--parallel",
        metavar="N",
        type=int,
        default=None,
        help=(
            "worker processes; 1 = serial in-process (default: one per "
            "usable CPU, capped at the number of experiments with "
            "uncached tasks, so a single experiment or a campaign runs "
            "serially)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute everything; neither read nor write the cache",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help=(
            "result cache directory (default: $REPRO_CACHE_DIR or "
            ".repro-cache)"
        ),
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write results + run manifest as JSON to FILE",
    )
    parser.add_argument(
        "--timeout",
        metavar="SECONDS",
        type=float,
        default=None,
        help=(
            "per-task wall-clock limit; tasks then run in worker "
            "processes (at least one), so it is enforced on every path"
        ),
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the live progress report (stderr)",
    )


def run_with_flags(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    run: Callable[..., Report],
) -> Optional[Report]:
    """Call ``run`` scheduled as the flags of :func:`add_run_flags` ask.

    ``run`` is :func:`repro.runtime.run_experiments` or
    :func:`repro.campaign.engine.run_campaign` with its plan bound.
    Builds the result cache and the progress reporter; when a task
    fails, prints why and returns ``None`` (exit code 1).
    """
    from repro.runtime import ResultCache, TaskFailure, TextProgressReporter
    from repro.runtime.cache import default_cache_dir

    if args.parallel is not None and args.parallel < 1:
        parser.error("--parallel must be >= 1")
    try:
        return run(
            fast=args.fast,
            seed=args.seed,
            workers=args.parallel,
            cache=(
                None
                if args.no_cache
                else ResultCache(args.cache_dir or default_cache_dir())
            ),
            timeout=args.timeout,
            reporter=None if args.quiet else TextProgressReporter(sys.stderr),
        )
    except TaskFailure as failure:
        print(f"error: {failure}", file=sys.stderr)
        return None


def write_run_json(path: str, document: Dict[str, Any]) -> None:
    """Write the ``--json`` document: results, manifest, verdict."""
    with open(path, "w", encoding="utf-8") as handle:
        # Insertion order is meaningful (check order, task plan order)
        # and deterministic, so no key sorting.
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"run manifest written to {path}")


def main(argv=None) -> int:
    """CLI entry point.  Returns a process exit code."""
    # Subcommand dispatch happens on the raw argv, before argparse:
    # each subcommand owns its whole flag namespace.
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    if raw and raw[0] == "check":
        from repro.checker.cli import main as check_main

        return check_main(raw[1:])
    if raw and raw[0] == "campaign":
        from repro.campaign.cli import campaign_main

        return campaign_main(raw[1:])
    if raw and raw[0] == "list":
        from repro.campaign.cli import list_main

        return list_main(raw[1:])
    if raw and raw[0] == "bench-report":
        from repro.experiments import bench_report

        return bench_report.main(argv=raw[1:])

    from repro.runtime import run_experiments

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the per-theorem results of Mansour & Schieber "
            "(PODC 1989)"
        ),
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default="all",
        help=(
            f"one of {sorted(REGISTRY)}, 'all' (default), "
            "'campaign' to run a declarative campaign spec, "
            "'list' to print the experiment and campaign registries, "
            "'bench-report' to print the BENCH_*.json trend table, or "
            "'check' to run the bounded model checker "
            "(see each subcommand's --help)"
        ),
    )
    add_run_flags(parser)
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="also write the transcript as markdown to FILE",
    )
    args = parser.parse_args(argv)

    names = sorted(REGISTRY) if args.experiment == "all" else [args.experiment]
    if any(name not in REGISTRY for name in names):
        parser.error(
            f"unknown experiment {args.experiment!r}; choose from "
            f"{sorted(REGISTRY)} or 'all'"
        )
    report = run_with_flags(
        parser, args, functools.partial(run_experiments, names)
    )
    if report is None:
        return 1

    results = [report.results[name] for name in names]
    for result in results:
        print(result.render())
        print()
    all_passed = all(result.passed for result in results)

    if args.json is not None:
        write_run_json(
            args.json,
            {
                "experiments": [result.to_dict() for result in results],
                "manifest": report.manifest,
                "passed": all_passed,
            },
        )
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(render_markdown(results, fast=args.fast,
                                         seed=args.seed))
        print(f"transcript written to {args.output}")
    return 0 if all_passed else 1


def render_markdown(results, fast: bool = False, seed: int = 0) -> str:
    """Render experiment results as a markdown transcript."""
    parts = [
        "<!-- generated by `python -m repro.experiments all "
        f"{'--fast ' if fast else ''}--seed {seed} --output ...` -->",
        "",
    ]
    for result in sorted(results, key=lambda r: r.exp_id):
        parts.append(f"### {result.exp_id}: {result.title}")
        parts.append("")
        for table in result.tables:
            parts.append("```")
            parts.append(table.render())
            parts.append("```")
            parts.append("")
        for note in result.notes:
            parts.append(f"*{note}*")
            parts.append("")
        parts.append("Shape checks:")
        parts.append("")
        for check, ok in result.checks.items():
            parts.append(f"- [{'x' if ok else ' '}] {check}")
        parts.append("")
        parts.append(
            f"**{result.exp_id}: "
            f"{'REPRODUCED' if result.passed else 'FAILED'}**"
        )
        parts.append("")
    return "\n".join(parts)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
