"""E6(a)'s two runs per phase count K.

The delivery run must resolve to the batch tier: attaching an observer
it cannot reconstruct would drop it to the interpreted tier, several
times slower.  On that tier, the K=1 run must absorb its runs of
silent receipts in bulk.  The safety verdict is a second,
counters-only run with the spec checked online, and for K=1 it must
end at the first violation.
"""

import pytest

from repro.core import trials
from repro.core.theorem51 import ProbabilisticRunResult
from repro.datalink.flooding import FloodingReceiver
from repro.datalink.spec import SpecSink
from repro.experiments import exp_ablation
from repro.experiments.base import ExperimentResult
from repro.ioa.execution import TraceMode


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "full"])
def test_phase_count_runs(fast, monkeypatch):
    batch_phases = []

    def batch_stub(pair_factory, q, n, seed=0, **kwargs):
        sender, _ = pair_factory()
        batch_phases.append(sender.phases)
        return ProbabilisticRunResult(q=q, n=n, delivered=0, seed=seed)

    monkeypatch.setattr(trials, "run_probabilistic_batch", batch_stub)
    verdict_systems = []
    make_system = exp_ablation.make_system

    def recording_make_system(*args, **kwargs):
        system = make_system(*args, **kwargs)
        verdict_systems.append(system)
        return system

    monkeypatch.setattr(exp_ablation, "make_system", recording_make_system)

    result = ExperimentResult(exp_id=exp_ablation.EXP_ID, title="E6(a)")
    exp_ablation._ablation_phase_count(result, fast, seed=0)

    phases = [1, 2, 3] if fast else [1, 2, 3, 6]
    assert batch_phases == phases
    assert len(verdict_systems) == len(phases)
    sinks = []
    for system in verdict_systems:
        execution = system.execution
        assert execution.trace_mode is TraceMode.COUNTS
        (sink,) = [s for s in execution.sinks if isinstance(s, SpecSink)]
        sinks.append(sink)
    assert [
        (v.property_name, v.event_index) for v in sinks[0].report().violations
    ] == [("DL1", 7), ("DL1/DL2", 7)]
    assert len(verdict_systems[0].execution) == 8
    assert all(sink.report().ok for sink in sinks[1:])
    assert all(result.checks.values()), result.checks


def test_k1_delivery_run_absorbs_silent_receipts(monkeypatch):
    """K=1 spends its whole 2M-step budget with the sender stalled, so
    about 1.4M copies reach the receiver; only the few that queue a
    delivery or an ack may go through ``on_packet``."""
    calls = {}
    running = []
    on_packet = FloodingReceiver.on_packet
    run_batch = trials.run_probabilistic_batch
    results = {}

    def counting_on_packet(self, packet):
        if running:
            calls[running[-1]] += 1
        on_packet(self, packet)

    def recording_batch(pair_factory, *args, **kwargs):
        phases = pair_factory()[0].phases
        calls[phases] = 0
        running.append(phases)
        try:
            results[phases] = run_batch(pair_factory, *args, **kwargs)
        finally:
            running.pop()
        return results[phases]

    monkeypatch.setattr(FloodingReceiver, "on_packet", counting_on_packet)
    monkeypatch.setattr(trials, "run_probabilistic_batch", recording_batch)
    result = ExperimentResult(exp_id=exp_ablation.EXP_ID, title="E6(a)")
    exp_ablation._ablation_phase_count(result, True, seed=0)

    k1 = results[1]
    assert (k1.steps, k1.delivered, k1.completed) == (2_000_000, 6, False)
    assert k1.events_elided > 1_000_000
    assert calls[1] <= 100, calls
    assert all(result.checks.values()), result.checks
