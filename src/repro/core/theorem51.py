"""Theorem 5.1 as an executable experiment: the probabilistic blowup.

    **Theorem 5.1.** Any data link protocol with a fixed number ``k``
    of headers implemented over a probabilistic physical layer with
    error probability ``q`` has to send, with probability
    ``1 - e^{-Omega(n)}``, at least ``(1 + q - eps_n)^{Omega(n)}``
    packets to deliver ``n`` messages, where ``eps_n = O(1/sqrt(n))``.

The mechanism the proof isolates: every message exchange has a
*dominant* packet value -- the protocol must send more copies of it
than are already in transit, or the channel could simulate the exchange
from stale copies.  Each dominant exchange loses a ``q`` fraction of
those copies to the delayed pool, so the pool (and with it the price of
every later exchange) compounds geometrically.

:func:`run_probabilistic_delivery` runs any protocol pair over a
probabilistic channel, recording the cumulative packet count after each
delivered message.  Experiment E4 feeds the fixed-header flooding
protocol (pool compounds -> exponential series) and the naive
sequence-number protocol (fresh header each message, stale pool
harmless -> linear series) through it and fits the growth rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

from repro.channels.probabilistic import TricklePolicy
from repro.core import trials
from repro.datalink.spec import SpecSink
from repro.datalink.stations import ReceiverStation, SenderStation
from repro.datalink.system import DataLinkSystem, make_system
from repro.ioa.actions import Direction
from repro.ioa.execution import TraceMode
from repro.ioa.sinks import ExecutionSink


@dataclass
class ProbabilisticRunResult:
    """One protocol run over a probabilistic channel.

    Attributes:
        q: channel error probability.
        n: messages requested.
        delivered: messages actually delivered within the budget.
        seed: channel randomness seed.
        cumulative_packets: total ``send_pkt`` count (both directions)
            after each delivered message; ``cumulative_packets[i]`` is
            the price of the first ``i + 1`` messages.
        per_message_packets: first differences of the above.
        final_backlog_t2r: delayed pool size on the forward channel at
            the end (the compounding quantity).
        completed: all ``n`` messages were delivered.
        steps: engine steps consumed.
        events_elided: trace events skipped (never allocated) by the
            run's trace mode -- 0 under ``TraceMode.FULL``, everything
            under the default ``TraceMode.COUNTS``.
        dl1_violated_at: index of the first event that violates (DL1),
            or ``None`` when the run keeps it.  The interpreted engine
            reads it from a :class:`~repro.datalink.spec.SpecSink` on
            the run, the batch engine from ``rm`` and ``sm`` at each
            delivery.
    """

    q: float
    n: int
    delivered: int
    seed: int
    cumulative_packets: List[int] = field(default_factory=list)
    per_message_packets: List[int] = field(default_factory=list)
    final_backlog_t2r: int = 0
    completed: bool = False
    steps: int = 0
    events_elided: int = 0
    dl1_violated_at: Optional[int] = None

    @property
    def total_packets(self) -> int:
        """Packets sent over the whole run."""
        return self.cumulative_packets[-1] if self.cumulative_packets else 0


def run_probabilistic_delivery(
    pair_factory: Callable[[], Tuple[SenderStation, ReceiverStation]],
    q: float,
    n: int,
    seed: int = 0,
    message: Hashable = "m",
    max_steps: int = 2_000_000,
    trickle: TricklePolicy = TricklePolicy.NEVER,
    packet_budget: Optional[int] = None,
    trace_mode: TraceMode = TraceMode.COUNTS,
    sinks: Optional[Sequence[ExecutionSink]] = None,
    engine: str = "auto",
) -> ProbabilisticRunResult:
    """Deliver ``n`` (identical) messages over a probabilistic channel.

    Args:
        pair_factory: builds the protocol pair.
        q: channel error probability (both directions).
        n: number of messages.
        seed: seeds the two channels deterministically.
        message: the constant message body (the paper's all-equal
            setting -- the regime in which header counting is the
            protocol's only defence).
        max_steps: total engine budget.
        trickle: what happens to delayed packets (see
            :class:`~repro.channels.probabilistic.TricklePolicy`).
            The default NEVER keeps them in the stale pool, the
            configuration the theorem's adversary distribution models.
        packet_budget: optional early stop, checked only after a
            message is delivered: the run ends once the cumulative
            packet count (both directions) has reached this many.
            Exponential runs get expensive fast, and the truncated
            series is still fit-able.  A message that never completes
            is not cut short, so a stalled run keeps sending until
            ``max_steps`` runs out, far past the budget.
        trace_mode: the run only consumes Definition-2 counters, so it
            defaults to ``TraceMode.COUNTS`` (no per-event allocation).
            Pass ``TraceMode.FULL`` to keep the event list, e.g. to
            spec-check the run afterwards; the reported statistics are
            identical either way.
        sinks: extra :class:`~repro.ioa.sinks.ExecutionSink` objects to
            attach (e.g. a :class:`~repro.ioa.sinks.MetricsSink` for
            operational telemetry); observers only, never part of the
            reported statistics.
        engine: one of :data:`~repro.core.trials.TRIAL_ENGINES`.
            ``"auto"`` (default) runs the batch engine
            (:mod:`repro.core.trials`: the live stations behind integer
            kernels, the channels as value-id multisets) whenever the
            configuration is within its exactness envelope and falls
            back to the interpreted engine otherwise; ``"interpreted"``
            forces the fallback; ``"batch"`` insists on the batch path
            and raises when the configuration is unsupported.  Both engines
            produce bit-identical results for the same seed.

    Returns:
        The per-message cumulative packet series and final pool size.

    Raises:
        ValueError: ``n`` or ``max_steps`` is negative, or ``engine``
            is unknown (or ``"batch"`` and the configuration is
            outside the batch engine's envelope).
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    if engine not in trials.TRIAL_ENGINES:
        raise ValueError(
            f"engine must be one of {trials.TRIAL_ENGINES}, got {engine!r}"
        )
    if engine != "interpreted":
        refusal = trials.probabilistic_batch_refusal(trickle, trace_mode, sinks)
        if refusal is None:
            return trials.run_probabilistic_batch(
                pair_factory,
                q=q,
                n=n,
                seed=seed,
                message=message,
                max_steps=max_steps,
                packet_budget=packet_budget,
                sinks=sinks,
            )
        if engine == "batch":
            raise ValueError(f"the batch engine cannot run this: {refusal}")
    sender, receiver = pair_factory()
    spec = SpecSink()
    system: DataLinkSystem = make_system(
        sender, receiver, q=q, seed=seed, trickle=trickle,
        trace_mode=trace_mode, sinks=[*(sinks or ()), spec],
    )
    cumulative: List[int] = []
    steps_used = 0
    delivered = 0
    for _ in range(n):
        stats = system.run([message], max_steps=max_steps - steps_used)
        steps_used += stats.steps
        if not stats.completed:
            break
        delivered += 1
        cumulative.append(
            system.execution.sp(Direction.T2R)
            + system.execution.sp(Direction.R2T)
        )
        if packet_budget is not None and cumulative[-1] >= packet_budget:
            break
        if steps_used >= max_steps:
            break
    per_message = [
        cumulative[i] - (cumulative[i - 1] if i else 0)
        for i in range(len(cumulative))
    ]
    return ProbabilisticRunResult(
        q=q,
        n=n,
        delivered=delivered,
        seed=seed,
        cumulative_packets=cumulative,
        per_message_packets=per_message,
        final_backlog_t2r=system.chan_t2r.transit_size(),
        completed=delivered >= n,
        steps=steps_used,
        events_elided=system.execution.events_elided,
        dl1_violated_at=None if spec.dl1 is None else spec.dl1.event_index,
    )
