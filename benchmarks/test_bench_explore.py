"""Benchmark: serial exploration against its pre-engine baseline.

Two capacity-flood searches bracket the search's regimes:

* ``explore_capflood21_120k`` -- deep and narrow (tens of thousands of
  tiny BFS levels);
* ``explore_capflood32_60k`` -- shorter and wider (about 2k levels).

``BEFORE`` holds the baseline wall times (seconds, best of 5) of the
identical workloads on commit ca8fa6e (the interned serial kernel
before its combined-delta memos and direct protocol hooks), measured
on the same container class as CI.
``test_emit_timings_blob`` re-times everything on the current tree and
writes the comparison to ``BENCH_explore.json``.
"""

import pathlib
import time

from repro.datalink.flooding import make_capacity_flooding
from repro.ioa.exploration import explore_station_states

BLOB_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_explore.json"

BEFORE = {
    "explore_capflood21_120k_s": 1.4628,
    "explore_capflood32_60k_s": 0.3638,
}

# The committed BENCH_explore.json records the measured ratios.  The
# in-test floor is looser because shared CI runners are noisy.
MIN_SPEEDUP = {
    "explore_capflood21_120k_serial_s": 1.6,
}


def capflood21():
    sender, receiver = make_capacity_flooding(2, 1)
    return explore_station_states(
        sender, receiver, ["m"],
        max_messages=2, max_configurations=120_000,
    )


def capflood32():
    sender, receiver = make_capacity_flooding(3, 2)
    return explore_station_states(
        sender, receiver, ["m0", "m1"],
        max_messages=3, max_configurations=60_000,
    )


WORKLOADS = {
    "explore_capflood21_120k_serial_s": capflood21,
    "explore_capflood32_60k_serial_s": capflood32,
}

BASELINE_OF = {
    "explore_capflood21_120k_serial_s": "explore_capflood21_120k_s",
    "explore_capflood32_60k_serial_s": "explore_capflood32_60k_s",
}


def best_of(fn, reps=5):
    timings = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - started)
    return min(timings)


def test_bench_capflood21_serial(benchmark):
    exploration = benchmark.pedantic(
        WORKLOADS["explore_capflood21_120k_serial_s"],
        rounds=1, iterations=1,
    )
    assert exploration.truncated
    assert exploration.configurations == 120_000


def test_emit_timings_blob(write_bench_blob):
    """Before/after comparison, committed as BENCH_explore.json."""
    after = {
        name: round(best_of(fn), 4) for name, fn in WORKLOADS.items()
    }
    speedups = {
        name: round(BEFORE[BASELINE_OF[name]] / max(after[name], 1e-9), 2)
        for name in WORKLOADS
    }
    # Aggregate trend: each measured workload weighted against its own
    # baseline (several configurations share one baseline run).
    aggregate = round(
        sum(BEFORE[BASELINE_OF[name]] for name in after)
        / max(sum(after.values()), 1e-9),
        2,
    )
    blob = {
        "bench": "sharded-exploration",
        "baseline_commit": "ca8fa6e",
        "before_s": BEFORE,
        "after_s": after,
        "speedup_x": aggregate,
        "speedup_x_by_workload": speedups,
    }
    write_bench_blob(BLOB_PATH.name, blob)
    for name, floor in MIN_SPEEDUP.items():
        assert speedups[name] >= floor, (
            f"{name}: speedup {speedups[name]} fell below {floor}"
        )
