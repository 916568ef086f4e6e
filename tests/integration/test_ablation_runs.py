"""E6(a)'s one run per phase count K.

The delivery run must resolve to the batch tier: attaching an observer
it cannot reconstruct would drop it to the interpreted tier, several
times slower.  On that tier, the K=1 run must absorb its runs of
silent receipts in bulk.  The safety verdict is the run's own (DL1)
check, so no second, interpreted system is built.
"""

import pytest

from repro.core import theorem51, trials
from repro.datalink.flooding import FloodingReceiver
from repro.experiments import exp_ablation
from repro.experiments.base import ExperimentResult


#: ``(seed, event)``: the event of the K=1 run's first (DL1) violation.
#: At seed 0 a stale copy forges the second delivery (rm 2 > sm 1).
K1_VIOLATIONS = [(0, 7), (3, 10), (5, 25)]


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "full"])
def test_phase_count_runs(fast, monkeypatch):
    runs = {}
    run_batch = trials.run_probabilistic_batch

    def recording_batch(pair_factory, *args, **kwargs):
        phases = pair_factory()[0].phases
        runs[phases] = run_batch(pair_factory, *args, **kwargs)
        return runs[phases]

    def no_system(*args, **kwargs):
        raise AssertionError("E6(a) builds no interpreted system")

    monkeypatch.setattr(trials, "run_probabilistic_batch", recording_batch)
    monkeypatch.setattr(exp_ablation, "make_system", no_system)
    monkeypatch.setattr(theorem51, "make_system", no_system)

    phases = [1, 2, 3] if fast else [1, 2, 3, 6]
    for seed, violated_at in K1_VIOLATIONS:
        runs.clear()
        result = ExperimentResult(exp_id=exp_ablation.EXP_ID, title="E6(a)")
        exp_ablation._ablation_phase_count(result, fast, seed=seed)

        assert list(runs) == phases
        assert runs[1].dl1_violated_at == violated_at
        assert all(runs[k].dl1_violated_at is None for k in phases[1:])
        (table,) = result.tables
        assert [row[2] for row in table.rows] == [
            "yes" if k > 1 else "no" for k in phases
        ]
        assert result.metrics == {
            "engine": ",".join(f"K={k}=batch" for k in phases)
        }
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
