"""Benchmark: the batch trial engines against the interpreted path.

The batch engines (:mod:`repro.core.trials`) run whole probabilistic
trials and pumping phases in integer/deque land: the live stations
behind the integer kernels of :mod:`repro.ioa.compile`, the channels
as value-id multisets.  Both paths are bit-identical -- the
equivalence suites pin that down -- so this bench only measures
throughput.

Unlike the other bench suites, *both* sides of the comparison are
timed live in the same run: ``before`` is the interpreted engine
(``engine="interpreted"``) and ``after`` is the batch engine
(``engine="batch"``) on the identical workloads, so the ratio is free
of cross-machine noise.  ``baseline_commit`` records the tree whose
interpreted path is the reference (the merge base of this PR).

Two workload families match the ISSUE targets:

* ``e4_probabilistic_sweep_s`` -- E4-shaped probabilistic delivery
  sweeps (flooding at q in {0.2, 0.4} and the sequence protocol at
  q=0.2, seeds 0..2), the >=3x target;
* ``pumping_flood_1024_s`` / ``pumping_naive_1024_s`` -- Theorem 4.1
  backlog pumping to 1024 hoarded copies in COUNTS mode, the >=1.5x
  target.

The in-test floors are looser than the committed ratios because
shared CI runners are noisy; ``BENCH_compile.json`` records the real
measured numbers.
"""

import pathlib
import time

from repro.core.theorem41 import plant_backlog
from repro.core.theorem51 import run_probabilistic_delivery
from repro.datalink.flooding import make_flooding
from repro.datalink.sequence import make_sequence_protocol
from repro.ioa.execution import TraceMode

BLOB_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_compile.json"

BASELINE_COMMIT = "c37dde5"

# Measured floors: E4 sweep ~5.3x, pumping 4x-9.5x on the dev
# container.  The asserted floors match the ISSUE acceptance bars.
MIN_SPEEDUP = {
    "e4_probabilistic_sweep_s": 3.0,
    "pumping_flood_1024_s": 1.5,
    "pumping_naive_1024_s": 1.5,
}


def e4_probabilistic_sweep(engine):
    results = []
    for seed in range(3):
        for q in (0.2, 0.4):
            results.append(
                run_probabilistic_delivery(
                    lambda: make_flooding(3), q=q, n=30, seed=seed,
                    packet_budget=20_000, engine=engine,
                )
            )
        results.append(
            run_probabilistic_delivery(
                make_sequence_protocol, q=0.2, n=45, seed=seed,
                engine=engine,
            )
        )
    assert all(result.delivered > 0 for result in results)
    return results


def pumping_flood_1024(engine):
    system, pool, cost = plant_backlog(
        lambda: make_flooding(3), 1024,
        trace_mode=TraceMode.COUNTS, engine=engine,
    )
    assert pool.total() >= 1000
    return system, pool, cost


def pumping_naive_1024(engine):
    system, pool, cost = plant_backlog(
        make_sequence_protocol, 1024,
        trace_mode=TraceMode.COUNTS, engine=engine,
    )
    assert pool.total() >= 1000
    return system, pool, cost


WORKLOADS = {
    "e4_probabilistic_sweep_s": e4_probabilistic_sweep,
    "pumping_flood_1024_s": pumping_flood_1024,
    "pumping_naive_1024_s": pumping_naive_1024,
}


def best_of(fn, reps=3):
    timings = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - started)
    return min(timings)


def test_bench_e4_sweep_batch(benchmark):
    benchmark.pedantic(
        lambda: e4_probabilistic_sweep("batch"), rounds=1, iterations=1
    )


def test_bench_e4_sweep_interpreted(benchmark):
    benchmark.pedantic(
        lambda: e4_probabilistic_sweep("interpreted"), rounds=1, iterations=1
    )


def test_bench_pumping_flood_batch(benchmark):
    benchmark.pedantic(
        lambda: pumping_flood_1024("batch"), rounds=1, iterations=1
    )


def test_bench_pumping_naive_batch(benchmark):
    benchmark.pedantic(
        lambda: pumping_naive_1024("batch"), rounds=1, iterations=1
    )


def test_emit_timings_blob(write_bench_blob):
    """Interpreted-vs-batch comparison, committed as BENCH_compile.json."""
    before = {
        name: round(best_of(lambda: fn("interpreted")), 4)
        for name, fn in WORKLOADS.items()
    }
    after = {
        name: round(best_of(lambda: fn("batch")), 4)
        for name, fn in WORKLOADS.items()
    }
    speedups = {
        name: round(before[name] / max(after[name], 1e-9), 2)
        for name in WORKLOADS
    }
    blob = {
        "bench": "compiled-batch-engines",
        "baseline_commit": BASELINE_COMMIT,
        "before_s": before,
        "after_s": after,
        "speedup_x": round(
            sum(before.values()) / max(sum(after.values()), 1e-9), 2
        ),
        "speedup_x_by_workload": speedups,
        "note": "before/after timed live in one run: interpreted vs batch",
    }
    write_bench_blob(BLOB_PATH.name, blob)
    for name, floor in MIN_SPEEDUP.items():
        assert speedups[name] >= floor, (
            f"{name}: speedup {speedups[name]} fell below {floor}"
        )
