"""Benchmark: the bounded checker against plain state-counting BFS.

The checker's contract is that asking a question costs almost nothing
on top of answering "how many configurations are there": invariant
scans are watermark classifiers over the intern tables plus an
emptiness test per level (see :mod:`repro.checker.properties`), so a
``type-ok`` sweep should track the plain exploration within 25%.
That bound is the headline number here (``invariant_overhead_x``).

Workloads:

* ``bfs_capflood32_60k_plain_s`` -- the baseline: plain state-counting
  BFS (``explore_station_states_parallel``, cut at the level barrier
  like the checker) over the capacity-flood(3,2) system,
  60k-configuration budget;
* ``check_capflood32_60k_typeok_s`` -- the identical traversal with
  the ``type-ok`` invariant scanned at every level barrier;
* ``check_forgery_eager_s`` -- end-to-end Theorem 3.1 forgery hunt on
  sequence-sender + eager-receiver, counterexample reconstruction and
  concrete replay included.

Both sides are re-timed on the current tree (the plain engine is
untouched by the checker PR, so live A/B on one host beats a canned
baseline); ``BENCH_checker.json`` records the comparison.
"""

import pathlib
import time

import pytest

from repro.checker import check_protocol
from repro.datalink.broken import EagerReceiver
from repro.datalink.flooding import make_capacity_flooding
from repro.datalink.sequence import SequenceSender
from repro.ioa.exploration_parallel import explore_station_states_parallel

BLOB_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_checker.json"

#: Acceptance bound on the invariant-scan overhead.
#: The measured ratio is committed in BENCH_checker.json; the in-test
#: ceiling is looser because shared CI runners are noisy.
MAX_OVERHEAD_X = 1.25
CI_MAX_OVERHEAD_X = 1.45


def bfs_plain():
    sender, receiver = make_capacity_flooding(3, 2)
    return explore_station_states_parallel(
        sender, receiver, ["m0", "m1"], max_messages=3,
        max_configurations=60_000,
    )


def check_typeok():
    sender, receiver = make_capacity_flooding(3, 2)
    return check_protocol(
        sender, receiver, ["m0", "m1"], "type-ok", max_messages=3,
        max_configurations=60_000, trace="off",
    )


def check_forgery(tmp=None):
    return check_protocol(
        SequenceSender(), EagerReceiver(), ["m0", "m1"], "dl1-forgery",
        max_messages=3,
    )


WORKLOADS = {
    "bfs_capflood32_60k_plain_s": bfs_plain,
    "check_capflood32_60k_typeok_s": check_typeok,
    "check_forgery_eager_s": check_forgery,
}


def best_of(fn, reps=5):
    timings = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - started)
    return min(timings)


def test_bench_plain_bfs(benchmark):
    exploration = benchmark.pedantic(bfs_plain, rounds=1, iterations=1)
    assert exploration.truncated
    assert exploration.configurations >= 60_000


def test_bench_typeok_sweep(benchmark):
    result = benchmark.pedantic(check_typeok, rounds=1, iterations=1)
    assert result.verdict == "budget-exhausted"
    assert result.stats["configurations"] >= 60_000
    # The sweep visits exactly the plain engine's region.
    assert result.stats["configurations"] == bfs_plain().configurations


def test_bench_forgery_search(benchmark):
    result = benchmark.pedantic(check_forgery, rounds=1, iterations=1)
    assert result.violated
    assert result.counterexample.concrete


def test_emit_timings_blob(write_bench_blob):
    """A/B comparison + overhead bound, committed as BENCH_checker.json."""
    after = {
        name: round(best_of(fn), 4) for name, fn in WORKLOADS.items()
    }
    plain = after["bfs_capflood32_60k_plain_s"]
    checked = after["check_capflood32_60k_typeok_s"]
    overhead = round(checked / max(plain, 1e-9), 3)
    blob = {
        "bench": "bounded-checker",
        "baseline_commit": "fa5aa8d",
        # Baseline: the plain state-counting traversal each checked
        # workload repeats (the forgery search has no plain
        # counterpart -- its baseline is the traversal it embeds).
        "before_s": {
            "check_capflood32_60k_typeok_s": plain,
        },
        "after_s": after,
        # Trend number: plain/checked, i.e. 1/overhead -- "how close
        # to free is invariant checking" (1.0 = free).
        "speedup_x": round(plain / max(checked, 1e-9), 2),
        "invariant_overhead_x": overhead,
        "forgery_search_s": after["check_forgery_eager_s"],
        "max_invariant_overhead_x": MAX_OVERHEAD_X,
    }
    write_bench_blob(BLOB_PATH.name, blob)
    assert overhead <= CI_MAX_OVERHEAD_X, (
        f"type-ok sweep overhead {overhead}x exceeds even the loose "
        f"CI ceiling {CI_MAX_OVERHEAD_X}x (target {MAX_OVERHEAD_X}x)"
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q", "--benchmark-disable"]))
