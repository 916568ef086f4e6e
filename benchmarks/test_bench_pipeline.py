"""Benchmark: the observer-sink pipeline against the gated fast path.

The sink refactor replaced the engine's four per-station-class
``_fast_`` bypasses (and the FULL/COUNTS forks inside ``Execution``)
with one recording path dispatching to a sink stack.  Three workloads
pin down what that unification costs:

* ``e4_counts_sweep_s`` -- the bare COUNTS-mode delivery sweeps of the
  E4 fast grid (flooding + sequence protocol at both error
  probabilities), no extra sinks attached.  This is the hot path the
  PR 2 kernel optimised; the acceptance bar is parity within 5%.
* ``full_spec_checked_s`` -- a FULL-mode run of the sequence protocol
  under a fair adversary, followed by the (PL1)/(DL1)/(DL2) spec
  check.  Exercises the trace sink and every event-level view.
* ``counts_sweep_metered_s`` -- the same COUNTS sweep with a
  :class:`~repro.ioa.sinks.MetricsSink` *and* a no-op custom sink
  attached: the price of observing, reported as a ratio over the bare
  *interpreted* sweep (``sink_stack_overhead_x``).  Extra sinks pin
  the interpreted engine, so the ratio is taken against
  ``counts_sweep_interp_s`` -- comparing against the batch path
  would conflate the sink cost with the engine gap, which is
  benched separately in ``test_bench_compile.py``.

``BEFORE`` holds the timings of the identical workloads measured on
the pre-refactor tree (the PR 2 fast path; the metered workload has no
pre-refactor equivalent -- extra sinks did not exist).
``test_emit_timings_blob`` re-times everything on the current tree and
writes the comparison to ``BENCH_pipeline.json``.  The asserted floors
are far looser than the measured ratios because shared CI runners are
noisy; the committed blob records the real numbers.
"""

import pathlib
import time

from repro.channels.adversary import FairAdversary
from repro.core.theorem51 import run_probabilistic_delivery
from repro.datalink.flooding import make_flooding
from repro.datalink.sequence import make_sequence_protocol
from repro.datalink.spec import check_execution
from repro.datalink.system import make_system
from repro.ioa.sinks import ExecutionSink, MetricsSink

BLOB_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_pipeline.json"

# Baseline wall times (seconds, best of 5) of the workloads below on
# the pre-refactor tree (commit 9a20642: gated COUNTS bypasses in
# DataLinkSystem, mode-forked Execution), measured on the same
# container class as CI.
BEFORE = {
    "e4_counts_sweep_s": 0.0448,
    "full_spec_checked_s": 0.0142,
}

# Parity bars.  The real target for the COUNTS sweep is within 5% of
# the gated fast path (the committed blob shows the measured ratio);
# the asserted ceilings leave room for runner noise.
MAX_SLOWDOWN = {"e4_counts_sweep_s": 1.30, "full_spec_checked_s": 1.35}
# The full metered stack (counts + metrics + one no-op custom sink)
# must stay within 2x of the bare sweep.
MAX_METERED_OVERHEAD = 2.0

# The E4 fast grid: (q, n) pairs matching exp_probabilistic.horizon.
SWEEP_GRID = ((0.2, 45), (0.4, 30))


class _NullSink(ExecutionSink):
    """A custom sink that overrides every hook with a pass."""

    def on_send_msg(self, message, index):
        pass

    def on_receive_msg(self, message, index):
        pass

    def on_send_pkt(self, direction, packet, copy_id, index):
        pass

    def on_receive_pkt(self, direction, packet, copy_id, index):
        pass


def _sweep(extra_sinks=None, engine="auto"):
    results = []
    for q, n in SWEEP_GRID:
        kwargs = {"engine": engine}
        if extra_sinks is not None:
            kwargs["sinks"] = extra_sinks()
        results.append(
            run_probabilistic_delivery(
                lambda: make_flooding(3), q=q, n=n, seed=11,
                packet_budget=150_000, **kwargs,
            )
        )
        results.append(
            run_probabilistic_delivery(
                make_sequence_protocol, q=q, n=n, seed=11, **kwargs
            )
        )
    assert all(result.delivered > 0 for result in results)
    return results


def e4_counts_sweep():
    return _sweep()


def counts_sweep_interp():
    return _sweep(engine="interpreted")


def counts_sweep_metered():
    return _sweep(
        extra_sinks=lambda: [MetricsSink(count_steps=False), _NullSink()]
    )


def full_spec_checked():
    sender, receiver = make_sequence_protocol()
    system = make_system(
        sender, receiver,
        adversary=FairAdversary(seed=5, p_deliver=0.3, max_delay=12),
    )
    stats = system.run(["m"] * 120, max_steps=50_000)
    assert stats.completed
    report = check_execution(system.execution)
    assert report.ok, report
    return report


WORKLOADS = {
    "e4_counts_sweep_s": e4_counts_sweep,
    "counts_sweep_interp_s": counts_sweep_interp,
    "full_spec_checked_s": full_spec_checked,
    "counts_sweep_metered_s": counts_sweep_metered,
}


def best_of(fn, reps=5):
    timings = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - started)
    return min(timings)


def test_bench_counts_sweep(benchmark):
    benchmark.pedantic(e4_counts_sweep, rounds=1, iterations=1)


def test_bench_full_spec_checked(benchmark):
    benchmark.pedantic(full_spec_checked, rounds=1, iterations=1)


def test_bench_counts_sweep_metered(benchmark):
    benchmark.pedantic(counts_sweep_metered, rounds=1, iterations=1)


def test_metered_sweep_counts_match_bare():
    """Attaching observers must not change any reported statistic."""
    bare = e4_counts_sweep()
    metered = counts_sweep_metered()
    for lhs, rhs in zip(bare, metered):
        assert lhs.cumulative_packets == rhs.cumulative_packets
        assert lhs.delivered == rhs.delivered
        assert lhs.steps == rhs.steps


def test_emit_timings_blob(write_bench_blob):
    """Before/after comparison, committed as BENCH_pipeline.json."""
    after = {
        name: round(best_of(fn), 4) for name, fn in WORKLOADS.items()
    }
    ratios = {
        name: round(after[name] / BEFORE[name], 3) for name in BEFORE
    }
    # Sinks pin the interpreted engine, so the overhead ratio is taken
    # against the bare interpreted sweep (same engine on both sides).
    overhead = round(
        after["counts_sweep_metered_s"]
        / max(after["counts_sweep_interp_s"], 1e-9),
        3,
    )
    # This suite guards a bounded-overhead refactor, so the honest
    # aggregate speedup sits near (possibly below) 1.0.
    blob = {
        "bench": "sink-pipeline",
        "baseline_commit": "9a20642",
        "before_s": BEFORE,
        "after_s": after,
        "speedup_x": round(
            sum(BEFORE.values())
            / max(sum(after[name] for name in BEFORE), 1e-9),
            3,
        ),
        "speedup_x_by_workload": {
            name: round(BEFORE[name] / max(after[name], 1e-9), 3)
            for name in BEFORE
        },
        "sink_stack_overhead_x": overhead,
    }
    write_bench_blob(BLOB_PATH.name, blob)
    for name, ceiling in MAX_SLOWDOWN.items():
        assert ratios[name] <= ceiling, (
            f"{name}: slowdown {ratios[name]} exceeded {ceiling}"
        )
    assert overhead <= MAX_METERED_OVERHEAD, (
        f"metered sweep overhead {overhead} exceeded {MAX_METERED_OVERHEAD}"
    )
