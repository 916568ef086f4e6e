"""Experiment E6: ablations of the design choices the paper leans on.

Three ablations, each isolating one assumption:

* **(a) phase count K.**  The flooding protocol's phase modulus is its
  safety margin: ``K = 1`` genuinely breaks (late duplicates of message
  ``i-1`` masquerade as message ``i``), while every ``K >= 2`` is safe;
  larger ``K`` slows the probabilistic blowup (the stale pool of each
  phase compounds only every ``K``-th message) at the price of ``2K``
  headers.
* **(b) FIFO vs non-FIFO.**  The alternating-bit protocol is correct
  over a reliable FIFO channel and forged over a non-FIFO channel by
  the very same adversary machinery -- the paper's entire premise in
  one table.
* **(c) trickle policy.**  The Theorem 5.1 blowup is driven by delayed
  packets *staying* delayed.  Letting the channel trickle them out
  (still non-FIFO, still (PL1)-safe) drains the stale pool and tames
  the growth, locating the lower bound's power squarely in the
  adversary's patience.
* **(d) packet lifetime.**  The modular (wrap-around) sequence
  protocol -- real networking's compromise -- is forged by the
  Theorem 3.1 adversary over the paper's unbounded channel, yet safe
  over a TTL channel whose copies expire after a few sends: the lower
  bound needs *unbounded* delay, and that is exactly the assumption
  engineered networks refuse to grant it.
"""

from __future__ import annotations

from repro.analysis.growth import classify_growth
from repro.analysis.tables import Table
from repro.channels.probabilistic import TricklePolicy
from repro.core.theorem31 import HeaderExhaustionAttack
from repro.core.theorem51 import run_probabilistic_delivery
from repro.datalink.alternating_bit import make_alternating_bit
from repro.datalink.flooding import make_flooding
from repro.datalink.spec import check_execution
from repro.datalink.system import DataLinkSystem, make_system
from repro.channels.fifo import FifoChannel
from repro.experiments.base import (
    ExperimentResult,
    engine_metrics,
    resolve_trial_engine,
)
from repro.ioa.actions import Direction

EXP_ID = "E6"
TITLE = "Ablations: phase count, FIFO vs non-FIFO, trickle, TTL"


def _ablation_phase_count(result: ExperimentResult, fast: bool, seed: int):
    table = Table(
        ["K", "headers", "safe", "q=0.3 growth", "base/slope", "total pkts"]
    )
    n = 18 if fast else 30
    resolved = {}
    for phases in ([1, 2, 3] if fast else [1, 2, 3, 6]):
        # One run over a lossy probabilistic channel gives the growth
        # row and, from its (DL1) check, the safety verdict.
        label = f"K={phases}"
        resolved[label] = resolve_trial_engine()
        run_result = run_probabilistic_delivery(
            lambda: make_flooding(phases),
            q=0.3,
            n=n,
            seed=seed,
            packet_budget=300_000,
            engine=resolved[label][0],
        )
        safe = run_result.dl1_violated_at is None
        xs = [float(i) for i in range(1, run_result.delivered + 1)]
        if run_result.delivered >= 3:
            kind, value = classify_growth(
                xs, [float(y) for y in run_result.cumulative_packets]
            )
        else:
            kind, value = ("n/a", 0.0)
        table.add_row(
            [phases, 2 * phases, safe, kind, value, run_result.total_packets]
        )
        if phases == 1:
            result.checks["K=1 is unsafe (DL1 violated under loss)"] = (
                not safe
            )
        else:
            result.checks[f"K={phases} is safe under loss"] = safe
    result.tables.append(table)
    result.metrics.update(engine_metrics(resolved))


def _ablation_fifo(result: ExperimentResult, fast: bool):
    del fast
    table = Table(["channel", "forged", "DL1 ok", "messages"])
    # Non-FIFO: the Theorem 3.1 attack lands.
    sender, receiver = make_alternating_bit()
    system = make_system(sender, receiver)
    attack = HeaderExhaustionAttack(system, max_rounds=16)
    outcome = attack.run()
    report = check_execution(system.execution)
    table.add_row(
        ["non-FIFO", outcome.forged, report.ok, outcome.messages_spent]
    )
    result.checks["ABP over non-FIFO: forged"] = outcome.forged

    # FIFO: the same protocol simply works; no stale copies ever
    # accumulate, so there is nothing to attack with.
    sender, receiver = make_alternating_bit()
    fifo_system = DataLinkSystem(
        sender,
        receiver,
        chan_t2r=FifoChannel(Direction.T2R),
        chan_r2t=FifoChannel(Direction.R2T),
    )
    stats = fifo_system.run(["m"] * 20, max_steps=5_000)
    fifo_report = check_execution(fifo_system.execution)
    table.add_row(
        ["FIFO", False, fifo_report.ok and stats.completed, 20]
    )
    result.checks["ABP over FIFO: valid delivery of 20 messages"] = (
        stats.completed and fifo_report.valid
    )
    result.tables.append(table)


def _ablation_trickle(result: ExperimentResult, fast: bool, seed: int):
    table = Table(["trickle", "delivered", "total pkts", "final backlog"])
    n = 18 if fast else 30
    totals = {}
    for trickle in (TricklePolicy.NEVER, TricklePolicy.UNIFORM):
        run_result = run_probabilistic_delivery(
            lambda: make_flooding(3),
            q=0.3,
            n=n,
            seed=seed,
            trickle=trickle,
            packet_budget=400_000,
        )
        totals[trickle] = run_result.total_packets
        table.add_row(
            [
                trickle.value,
                run_result.delivered,
                run_result.total_packets,
                run_result.final_backlog_t2r,
            ]
        )
    result.checks["trickling delayed packets tames the blowup"] = (
        totals[TricklePolicy.UNIFORM] < totals[TricklePolicy.NEVER]
    )
    result.tables.append(table)


def _ablation_ttl(result: ExperimentResult, fast: bool):
    """(d) The modular-sequence boundary: the paper's adversary needs
    unbounded packet lifetimes.  The same 2M-header protocol is forged
    over the unbounded non-FIFO channel and safe over a TTL channel."""
    from repro.channels.adversary import FairAdversary
    from repro.channels.bounded import BoundedReorderChannel
    from repro.datalink.sequence_mod import make_modular_sequence

    table = Table(["channel", "modulus", "forged", "spec ok", "delivered"])

    # Unbounded non-FIFO: Theorem 3.1 applies.
    sender, receiver = make_modular_sequence(4)
    system = make_system(sender, receiver)
    outcome = HeaderExhaustionAttack(system, max_rounds=24).run()
    report = check_execution(system.execution)
    table.add_row(
        ["non-FIFO (unbounded)", 4, outcome.forged, report.ok,
         outcome.messages_spent]
    )
    result.checks["mod-seq over unbounded non-FIFO: forged"] = (
        outcome.forged
    )

    # TTL channel: bounded lifetime rescues the wrap-around.
    n = 20 if fast else 40
    sender, receiver = make_modular_sequence(8)
    ttl_system = DataLinkSystem(
        sender,
        receiver,
        chan_t2r=BoundedReorderChannel(Direction.T2R, lifetime=4),
        chan_r2t=BoundedReorderChannel(Direction.R2T, lifetime=4),
        adversary=FairAdversary(seed=1, p_deliver=0.4, max_delay=6),
    )
    stats = ttl_system.run(["m"] * n, max_steps=100_000)
    ttl_report = check_execution(ttl_system.execution)
    table.add_row(
        ["TTL (lifetime=4 sends)", 8, False,
         ttl_report.ok and stats.completed, n]
    )
    result.checks["mod-seq over TTL channel: safe and live"] = (
        stats.completed and ttl_report.valid
    )
    result.tables.append(table)


def run(fast: bool = False, seed: int = 0) -> ExperimentResult:
    """Execute the four ablations."""
    result = ExperimentResult(exp_id=EXP_ID, title=TITLE)
    _ablation_phase_count(result, fast, seed)
    _ablation_fifo(result, fast)
    _ablation_trickle(result, fast, seed)
    _ablation_ttl(result, fast)
    result.notes.append(
        "(a) larger K slows the compounding but costs headers; "
        "(b) non-FIFO is the entire difficulty; "
        "(c) the blowup needs delays to persist; "
        "(d) and the forgery needs them unbounded -- TTL channels "
        "rescue finite sequence numbers, which is why real networks "
        "get away with wrap-around."
    )
    return result
