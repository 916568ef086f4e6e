"""Integration: the full CLI through the parallel runtime, twice.

Runs ``python -m repro.experiments all --fast --parallel 2 --json``
cold, then again against the warm cache, and checks the acceptance
contract: both invocations succeed with every shape check passing, the
warm run serves every task from cache, and the two JSON documents are
byte-identical once the timing/status fields are masked.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]


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
        timeout=900,
    )


def masked(document):
    """The deterministic projection of the run JSON."""
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
    workdir = tmp_path_factory.mktemp("cli")
    cache_dir = workdir / "cache"
    args = ["all", "--fast", "--parallel", "2", "--seed", "0",
            "--json", "out.json"]
    cold = run_cli(args, cache_dir, workdir)
    cold_json = (workdir / "out.json").read_text(encoding="utf-8")
    warm = run_cli(args, cache_dir, workdir)
    warm_json = (workdir / "out.json").read_text(encoding="utf-8")
    return {
        "cold": cold,
        "warm": warm,
        "cold_json": cold_json,
        "warm_json": warm_json,
    }


def test_cold_run_succeeds(cli_runs):
    cold = cli_runs["cold"]
    assert cold.returncode == 0, cold.stderr[-2000:]
    assert "overall: PASS" in cold.stdout
    assert "FAIL" not in cold.stdout


def test_warm_run_succeeds_and_is_cached(cli_runs):
    warm = cli_runs["warm"]
    assert warm.returncode == 0, warm.stderr[-2000:]
    manifest = json.loads(cli_runs["warm_json"])["manifest"]
    statuses = {task["status"] for task in manifest["tasks"]}
    assert statuses == {"cached"}
    assert manifest["totals"]["ran"] == 0
    assert manifest["totals"]["cached"] == manifest["totals"]["tasks"]


def test_cold_run_actually_ran(cli_runs):
    manifest = json.loads(cli_runs["cold_json"])["manifest"]
    assert {task["status"] for task in manifest["tasks"]} == {"ok"}


def test_experiment_payloads_byte_identical(cli_runs):
    cold = json.loads(cli_runs["cold_json"])
    warm = json.loads(cli_runs["warm_json"])
    cold_exps = json.dumps(cold["experiments"], sort_keys=True)
    warm_exps = json.dumps(warm["experiments"], sort_keys=True)
    assert cold_exps == warm_exps


def test_json_identical_modulo_timing_fields(cli_runs):
    assert masked(cli_runs["cold_json"]) == masked(cli_runs["warm_json"])


def test_every_experiment_reproduced(cli_runs):
    document = json.loads(cli_runs["cold_json"])
    assert document["passed"] is True
    for experiment in document["experiments"]:
        assert all(experiment["checks"].values()), experiment["exp_id"]


def test_stdout_identical_across_runs(cli_runs):
    assert cli_runs["cold"].stdout == cli_runs["warm"].stdout


def test_default_worker_count_matches_serial_run(tmp_path):
    """``all --fast`` on the default worker count prints the same
    results as ``--parallel 1``; each run reports the count that ran."""
    from repro.experiments.runner import REGISTRY
    from repro.runtime.executor import usable_cpus

    runs = {}
    for label, extra in (("default", []), ("serial", ["--parallel", "1"])):
        workdir = tmp_path / label
        workdir.mkdir()
        proc = run_cli(
            ["all", "--fast", "--seed", "0", "--no-cache",
             "--json", "out.json", *extra],
            workdir / "cache",
            workdir,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        document = json.loads((workdir / "out.json").read_text("utf-8"))
        runs[label] = (proc, document)

    expected = {"default": min(usable_cpus(), len(REGISTRY)), "serial": 1}
    for label, (proc, document) in runs.items():
        assert document["manifest"]["workers"] == expected[label]
        assert f"workers={expected[label]}\n" in proc.stderr
    default, serial = runs["default"], runs["serial"]
    assert default[0].stdout == serial[0].stdout
    assert default[1]["experiments"] == serial[1]["experiments"]
