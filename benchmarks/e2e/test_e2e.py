"""Tests for the end-to-end benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; the
tier-1 suite (``testpaths = ["tests"]``) does not collect them.
"""

import json
import re
import shutil
import subprocess
import sys
import types

import pytest

from benchmarks.e2e import bench, compare, tracing
from benchmarks.e2e.workloads import LAYER_MAP, SEEDS, WORKLOADS, program_seed

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def span(id, parent, start, end, name="x", **attrs):
    return {"id": id, "parent": parent, "start": start, "end": end,
            "name": name, "attrs": attrs}


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 1, 2.0, 3.0),
        span(3, 0, 5.0, 6.0),
    ]
    assert tracing.self_times(spans) == pytest.approx(
        {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    )


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 2.0, 6.0),
        span(2, 0, 4.0, 8.0),
        span(3, 0, 9.0, 12.0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_use_self_time_and_outermost_calls():
    cold = [
        span(0, None, 0.0, 10.0, "runtime.task", experiment="ablation"),
        span(1, 0, 0.0, 6.0, "datalink.run"),
        span(2, 0, 6.0, 8.0, "core.delivery"),
        span(3, 2, 6.5, 7.5, "datalink.run"),
        span(4, 0, 8.0, 9.0, "ioa.explore", configurations=50),
        span(5, 4, 8.2, 8.8, "ioa.explore", configurations=50),
    ]
    warm = [
        span(0, None, 0.0, 1.0, "runtime.cache_get", hit=True),
        span(1, None, 1.0, 2.0, "runtime.cache_get", hit=False),
    ]
    m = tracing.layer_metrics(cold, warm)
    assert m["experiments.ablation_s"] == pytest.approx(10.0)
    assert m["datalink.run_s"] == pytest.approx(7.0)
    assert m["datalink.run_calls"] == 2
    assert m["core.delivery_s"] == pytest.approx(1.0)
    assert m["ioa.explore_calls"] == 1
    assert m["ioa.explore_configurations"] == 50
    assert m["ioa.explore_configs_per_s"] == pytest.approx(50.0)
    assert m["runtime.task_self_s"] == pytest.approx(1.0)
    assert m["trace.coverage"] == pytest.approx(0.9)
    assert m["runtime.cache_get_calls"] == 2
    assert m["runtime.cache_hit_ratio"] == pytest.approx(0.5)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------

@pytest.fixture
def fake_package(monkeypatch):
    """``e2efake.lib`` defines ``f`` and ``K.m``; ``e2efake.user`` did
    ``from e2efake.lib import f``."""
    lib = types.ModuleType("e2efake.lib")
    exec(
        "def f(x):\n    return x + 1\n"
        "class K:\n    def m(self):\n        return f(1)\n",
        lib.__dict__,
    )
    user = types.ModuleType("e2efake.user")
    user.f = lib.f
    package = types.ModuleType("e2efake")
    package.lib, package.user = lib, user
    for module in (package, lib, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return lib, user


def test_install_rebinds_from_imports_and_methods_then_restores(fake_package):
    lib, user = fake_package
    f, m = lib.f, lib.K.m
    tracer = tracing.Tracer()
    patch = tracing.install(
        tracer,
        [("lib.f", "e2efake.lib", "f", None),
         ("lib.m", "e2efake.lib", "K.m", None)],
        prefix="e2efake",
    )
    assert user.f is lib.f is not f
    assert user.f(1) == 2
    assert lib.K().m() == 2
    names = [(s["name"], s["parent"]) for s in tracer.spans]
    # K.m calls f through lib's global, so that span nests under it.
    assert names == [("lib.f", None), ("lib.m", None), ("lib.f", 1)]
    patch.restore()
    assert lib.f is f and user.f is f and lib.K.__dict__["m"] is m
    assert lib.K().m() == 2 and len(tracer.spans) == 3


def test_span_closes_when_the_wrapped_call_raises():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("no")

    wrapped = tracer.wrap("boom", boom, lambda a, k, r: {"never": 1})
    with pytest.raises(ValueError):
        wrapped()
    (record,) = tracer.spans
    assert record["end"] >= record["start"] and record["attrs"] == {}
    assert tracer.wrap("ok", lambda: 1, None)() == 1
    assert tracer.spans[1]["parent"] is None


def test_every_target_resolves_in_the_program():
    from repro.experiments.runner import REGISTRY

    for name, module, path, _ in tracing.TARGETS:
        owner, attr, original = tracing._resolve(module, path)
        assert callable(original), (name, module, path)
    assert set(tracing.EXPERIMENTS) == set(REGISTRY)


# ----------------------------------------------------------------------
# compare verdicts
# ----------------------------------------------------------------------

PARENT = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]


def test_compare_improved():
    change = [v * 0.8 for v in PARENT]
    assert compare.judge(PARENT, change, 0.1).verdict == "improved"


def test_compare_improved_needs_ten_pairs():
    change = [v * 0.8 for v in PARENT]
    assert compare.judge(PARENT[:5], change[:5], 0.1).verdict == "unchanged"


def test_compare_worse():
    change = [v * 1.2 for v in PARENT]
    assert compare.judge(PARENT, change, 0.1).verdict == "worse"


def test_compare_unchanged():
    change = list(reversed(PARENT))
    assert compare.judge(PARENT, change, 0.1).verdict == "unchanged"


def test_compare_unresolved():
    noisy = [6.0, 14.0, 7.0, 13.0, 10.0, 8.0, 12.0, 9.0, 11.0, 10.0]
    change = [v * 1.05 for v in noisy]
    assert compare.judge(noisy, change, 0.1).verdict == "unresolved"


def test_compare_higher_is_better_and_absolute_bounds():
    assert compare.judge(PARENT, [v * 1.3 for v in PARENT], 0.1,
                         better="higher").verdict == "improved"
    zeros = [0.0] * 10
    assert compare.judge(zeros, zeros, 0.0, absolute=True).verdict == "unchanged"
    assert compare.judge(zeros, [0.0] * 9 + [0.1], 0.0,
                         absolute=True).verdict == "unchanged"
    assert compare.judge(zeros, [0.1] * 10, 0.0,
                         absolute=True).verdict == "worse"


def test_compare_reads_run_documents():
    def run(wall, fail):
        return {"workloads": {"check": {
            "fail_ratio": fail,
            "metrics": {"wall_s": {"value": wall}},
        }}}

    parent = [run(v, 0.0) for v in PARENT]
    change = [run(v * 1.5, 0.0) for v in PARENT]
    table = compare.compare(parent, change)
    assert set(table) == {"check"}
    assert table["check"]["wall_s"].verdict == "worse"
    assert table["check"]["fail_ratio"].verdict == "unchanged"


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------

def test_benchmark_json_is_consistent():
    spec = bench.load_benchmark()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = [m["name"] for m in spec["per_layer"]]
    names = workloads + list(end_to_end) + per_layer
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names)
    assert 2 <= len(workloads) <= 8 and workloads == list(WORKLOADS)
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in end_to_end.values())
    assert end_to_end["setup_s"]["bound"] == max(
        m["bound"] for m in end_to_end.values()
    )
    assert set(per_layer) == set(LAYER_MAP)
    for metric, (moves, where) in LAYER_MAP.items():
        assert moves and set(moves) <= set(end_to_end), metric
        assert where and set(where) <= set(workloads), metric
    derived = set(tracing.layer_metrics([], []))
    derived |= {"setup.numpy_loaded", "trace.overhead_ratio"}
    assert derived == set(per_layer)


def test_any_seed_maps_onto_a_vetted_program_seed():
    assert len(set(SEEDS)) == len(SEEDS)
    for seed in (0, 1, 1153076014, 2**63 - 1, -5):
        assert program_seed(seed) in SEEDS
        assert program_seed(seed) == program_seed(seed)
    assert {program_seed(s) for s in range(len(SEEDS))} == set(SEEDS)


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", "check",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# correctness gate and one real sample
# ----------------------------------------------------------------------

def test_mismatches_count_as_failures(tmp_path):
    run = bench.WorkloadRun(WORKLOADS["check"], 0, tmp_path)
    command = WORKLOADS["check"].commands[0]
    out = tmp_path / "out.json"
    proc = bench.Proc(wall=1.0, cpu=1.0, rss_mb=1.0, exit_code=0, stdout=out)
    result = {
        "verdict": "violated",
        "stats": {"configurations": 4, "levels": 4},
        "counterexample": {"concrete": True, "fingerprint": "a", "spec": {
            "violations": [{"property": "DL1"}]}},
    }
    out.write_text(json.dumps(result))
    run._check(0, command, proc, out, warm=False)
    assert run.failed == 0
    result["counterexample"]["fingerprint"] = "b"
    out.write_text(json.dumps(result))
    run._check(0, command, proc, out, warm=False)
    result["verdict"] = "holds"
    out.write_text(json.dumps(result))
    run._check(0, command, proc, out, warm=False)
    out.write_text("{}")
    run._check(0, command, bench.Proc(1.0, 1.0, 1.0, 1, out), out, warm=False)
    assert run.failed == 3
    assert "differs" in run.errors[0] and "verdict" in run.errors[1]
    assert "exit code 1" in run.errors[2]


def test_one_check_sample_end_to_end(tmp_path):
    run = bench.WorkloadRun(WORKLOADS["check"], 0, tmp_path)
    plain = run.sample()
    traced = run.sample(traced=True)
    assert run.attempted == 8 and run.failed == 0, run.errors
    assert [p.exit_code for p in plain["cold"]] == [0, 2]
    cold = bench._merge_spans(traced["spans"]["cold"])
    warm = bench._merge_spans(traced["spans"]["warm"])
    layers = tracing.layer_metrics(cold, warm)
    assert layers["checker.configurations"] == 4 + 60_001
    assert layers["checker.replay_s"] > 0
    assert len({s["id"] for s in cold}) == len(cold)
