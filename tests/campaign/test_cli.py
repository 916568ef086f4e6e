"""Integration: the campaign CLI through the parallel runtime, twice.

Mirrors ``tests/runtime/test_cli_integration.py`` for the campaign
subcommand: a declarative spec runs cold and then warm against the
same cache, both through ``--parallel 2``, and the two JSON documents
agree once timing/status fields are masked.  Also covers ``list`` and
spec-error exit codes.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]

SPEC = {
    "name": "cli-smoke",
    "title": "CLI smoke sweep",
    "groups": [
        {
            "cell": "adversary",
            "label": "grid",
            "channel": "nonfifo",
            "grid": {
                "protocol": ["sequence", "alternating-bit"],
                "adversary": ["optimal", "replay-flood"],
            },
            "params": {"n": 3},
            "metrics": ["delivered", "packets", "completed"],
        }
    ],
}


def run_cli(args, cache_dir, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args],
        cwd=str(cwd),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def masked(document):
    doc = json.loads(document)
    manifest = doc["manifest"]
    manifest.pop("totals")
    for task in manifest["tasks"]:
        task.pop("status")
        task.pop("wall_time")
        task.pop("attempts")
    return doc


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("campaign-cli")
    cache_dir = workdir / "cache"
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
    args = ["campaign", str(spec_path), "--fast", "--parallel", "2",
            "--seed", "0", "--json", "out.json"]
    cold = run_cli(args, cache_dir, workdir)
    cold_json = (workdir / "out.json").read_text(encoding="utf-8")
    warm = run_cli(args, cache_dir, workdir)
    warm_json = (workdir / "out.json").read_text(encoding="utf-8")
    return {
        "workdir": workdir,
        "cold": cold,
        "warm": warm,
        "cold_json": cold_json,
        "warm_json": warm_json,
    }


def test_both_runs_succeed(cli_runs):
    assert cli_runs["cold"].returncode == 0, cli_runs["cold"].stderr[-2000:]
    assert cli_runs["warm"].returncode == 0, cli_runs["warm"].stderr[-2000:]


def test_transcript_shows_grid_and_pass(cli_runs):
    out = cli_runs["cold"].stdout
    assert "cli-smoke" in out
    assert "replay-flood" in out
    assert "overall: PASS" in out


def test_warm_run_fully_cached(cli_runs):
    totals = json.loads(cli_runs["warm_json"])["manifest"]["totals"]
    assert totals["ran"] == 0
    assert totals["cached"] == totals["tasks"] == 4


def test_masked_documents_identical(cli_runs):
    assert masked(cli_runs["cold_json"]) == masked(cli_runs["warm_json"])


def test_document_shape(cli_runs):
    doc = json.loads(cli_runs["cold_json"])
    assert doc["passed"] is True
    assert doc["campaign"]["name"] == "cli-smoke"
    assert doc["manifest"]["campaign"]["cells"] == 4
    assert doc["manifest"]["experiments"] == ["campaign:cli-smoke"]
    (result,) = doc["experiments"]
    assert result["exp_id"] == "cli-smoke"


def test_invalid_spec_exits_2(cli_runs, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad", "groups": []}),
                   encoding="utf-8")
    result = run_cli(["campaign", str(bad)], tmp_path, tmp_path)
    assert result.returncode == 2
    assert "error:" in result.stderr


def test_negative_message_count_fails_the_run(cli_runs, tmp_path):
    spec = tmp_path / "negative.json"
    spec.write_text(json.dumps({
        "name": "negative",
        "groups": [{
            "cell": "delivery",
            "label": "delivery",
            "grid": {"protocol": ["sequence"]},
            "params": {"q": 0.2, "n": -2},
            "metrics": ["delivered", "completed"],
        }],
    }), encoding="utf-8")
    result = run_cli(["campaign", str(spec), "--no-cache"], tmp_path, tmp_path)
    assert result.returncode != 0
    assert "overall: PASS" not in result.stdout
    assert "n must be non-negative" in result.stderr


def test_negative_backlog_fails_the_run(cli_runs, tmp_path):
    spec = tmp_path / "negative-backlog.json"
    spec.write_text(json.dumps({
        "name": "negative-backlog",
        "groups": [{
            "cell": "backlog",
            "label": "backlog",
            "protocol": "alternating-bit",
            "grid": {"backlog": [-4]},
            "metrics": ["backlog_actual", "lower_bound"],
        }],
    }), encoding="utf-8")
    result = run_cli(["campaign", str(spec), "--no-cache"], tmp_path, tmp_path)
    assert result.returncode == 1
    assert "overall: PASS" not in result.stdout
    assert "backlog must be non-negative" in result.stderr


@pytest.mark.parametrize(
    "params, message",
    [
        ({"n": -3}, "n must be non-negative"),
        ({"n": 2, "max_steps": -5}, "max_steps must be non-negative"),
        ({"n": 2, "sender_burst": 0}, "sender_burst must be >= 1"),
    ],
    ids=["n", "max_steps", "sender_burst"],
)
def test_out_of_range_adversary_cell_fails_the_run(cli_runs, tmp_path,
                                                   params, message):
    spec = tmp_path / "bad-adversary.json"
    spec.write_text(json.dumps({
        "name": "bad-adversary",
        "groups": [{
            "cell": "adversary",
            "label": "adversary",
            "grid": {"protocol": ["sequence"]},
            "params": params,
            "metrics": ["delivered", "completed"],
        }],
    }), encoding="utf-8")
    result = run_cli(["campaign", str(spec), "--no-cache"], tmp_path, tmp_path)
    assert result.returncode == 1
    assert "overall: PASS" not in result.stdout
    assert message in result.stderr


def test_list_prints_registries(cli_runs, tmp_path):
    result = run_cli(["list"], tmp_path, tmp_path)
    assert result.returncode == 0
    for section in ("experiments:", "campaign protocols:",
                    "campaign channels:", "campaign adversaries:",
                    "campaign metrics:"):
        assert section in result.stdout
    assert "alternating-bit" in result.stdout
    assert "replay-flood" in result.stdout
