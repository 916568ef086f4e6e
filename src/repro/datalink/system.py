"""The composition/simulation engine.

A :class:`DataLinkSystem` is the paper's Figure 1 made executable: the
two station automata ``A^t`` and ``A^r`` composed with the two physical
channels ``PL^{t->r}`` and ``PL^{r->t}``, with every externally visible
action recorded into an :class:`~repro.ioa.execution.Execution`.

The engine has no notion of wall-clock time.  One :meth:`step` is one
scheduling round: the receiver flushes its pending outputs, the sender
is polled for (re)transmissions, the channels deliver whatever their
own discipline mandates, and the adversary (if any) makes its moves.
Retransmission timers are modelled by polling frequency, packet delay
by the adversary withholding copies across steps.

There is exactly **one** recording path.  The engine talks to the
stations through their offer/commit dispatch interface
(:meth:`~repro.datalink.stations.SenderStation.offer_packet` /
``commit_packet`` / ``accept_*`` and the receiver's ``pop_*``) and
announces every event field-wise to the execution's sink stack
(:mod:`repro.ioa.sinks`); whether those events are materialised,
merely counted, or also metered is entirely the sinks' business.  The
engine keeps one :class:`AdversaryView` alive for the whole run
(refreshing its ``step_index`` in place) and consumes the canonical
packed ``(kind, direction, copy_id)`` decision tuples, converting
user-supplied :class:`~repro.channels.adversary.Decision` objects on
the way in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Optional, Sequence

from repro.channels.adversary import (
    AdversaryView,
    AnyDecision,
    ChannelAdversary,
    DecisionKind,
)
from repro.channels.base import Channel, ChannelOracle
from repro.channels.nonfifo import NonFifoChannel
from repro.channels.packets import TransitCopy
from repro.channels.probabilistic import ProbabilisticChannel, TricklePolicy
from repro.datalink.stations import NO_OUTPUT, ReceiverStation, SenderStation
from repro.ioa.actions import Direction
from repro.ioa.execution import Execution, TraceMode
from repro.ioa.sinks import ExecutionSink


@dataclass
class DeliveryStats:
    """Outcome of a :meth:`DataLinkSystem.run` call.

    Attributes:
        submitted: messages handed to the sender (``sm``).
        delivered: messages handed to the higher layer (``rm``).
        steps: engine steps consumed.
        packets_t2r: ``send_pkt^{t->r}`` count during the run.
        packets_r2t: ``send_pkt^{r->t}`` count during the run.
        completed: True when every submitted message was delivered
            within the step budget.
    """

    submitted: int
    delivered: int
    steps: int
    packets_t2r: int
    packets_r2t: int
    completed: bool

    @property
    def packets_total(self) -> int:
        """Packets sent on both channels together."""
        return self.packets_t2r + self.packets_r2t


class DataLinkSystem:
    """Composition of two stations and two channels, with recording.

    Args:
        sender: the transmitting-station automaton.
        receiver: the receiving-station automaton.
        chan_t2r: forward channel; a fresh
            :class:`~repro.channels.nonfifo.NonFifoChannel` by default.
        chan_r2t: reverse channel; same default.
        adversary: optional channel adversary consulted every step.
        sender_burst: sender polls per step (how many transmissions the
            retransmission "timer" allows per scheduling round); at
            least 1, or :class:`ValueError`.
        trace_mode: how much of the execution to materialise.  The
            default FULL keeps every event (required by the spec
            checkers and the replay machinery); COUNTS keeps only the
            Definition-2 counters, which is what bulk experiment sweeps
            need, at a fraction of the cost.
        sinks: extra :class:`~repro.ioa.sinks.ExecutionSink` objects
            (e.g. a :class:`~repro.ioa.sinks.MetricsSink`) appended to
            the execution's standard stack.
    """

    def __init__(
        self,
        sender: SenderStation,
        receiver: ReceiverStation,
        chan_t2r: Optional[Channel] = None,
        chan_r2t: Optional[Channel] = None,
        adversary: Optional[ChannelAdversary] = None,
        sender_burst: int = 1,
        trace_mode: TraceMode = TraceMode.FULL,
        sinks: Optional[Sequence[ExecutionSink]] = None,
    ) -> None:
        if sender_burst < 1:
            raise ValueError(f"sender_burst must be >= 1, got {sender_burst}")
        self.sender = sender
        self.receiver = receiver
        self.chan_t2r = chan_t2r if chan_t2r is not None else NonFifoChannel(
            Direction.T2R
        )
        self.chan_r2t = chan_r2t if chan_r2t is not None else NonFifoChannel(
            Direction.R2T
        )
        self.adversary = adversary
        self.sender_burst = sender_burst
        self.trace_mode = trace_mode
        self.execution = Execution(trace_mode=trace_mode, sinks=sinks)
        self._step_index = 0
        # Channels are fixed for the system's lifetime; build the
        # direction map and the adversary's read view once instead of
        # per step/call.
        self._channels: Dict[Direction, Channel] = {
            Direction.T2R: self.chan_t2r,
            Direction.R2T: self.chan_r2t,
        }
        self._adversary_view = AdversaryView(self._channels, 0)
        # Step-boundary telemetry marks are only emitted when some sink
        # actually listens for them.
        self._emit_internal = self.execution.wants_internal
        self._attach_oracle()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    @property
    def channels(self) -> Dict[Direction, Channel]:
        """Both channels, keyed by direction."""
        return self._channels

    def _attach_oracle(self) -> None:
        oracle = ChannelOracle(self._channels)
        for station in (self.sender, self.receiver):
            if station.uses_oracle:
                station.oracle = oracle

    @property
    def step_index(self) -> int:
        """Number of completed engine steps."""
        return self._step_index

    # ------------------------------------------------------------------
    # primitive moves (each records exactly its own events)
    # ------------------------------------------------------------------
    def submit_message(self, message: Hashable) -> None:
        """Environment action ``send_msg(message)``."""
        self.execution.record_send_msg(message)
        self.sender.accept_message(message)

    def pump_sender(self, bursts: Optional[int] = None) -> int:
        """Poll the sender up to ``bursts`` times; returns packets sent."""
        bursts = self.sender_burst if bursts is None else bursts
        sender = self.sender
        chan = self.chan_t2r
        execution = self.execution
        sent = 0
        for _ in range(bursts):
            packet = sender.offer_packet()
            if packet is None:
                break
            copy = chan.send(packet, execution.length)
            execution.record_send_pkt(Direction.T2R, packet, copy.copy_id)
            sender.commit_packet(packet)
            sent += 1
        return sent

    def pump_receiver(self) -> int:
        """Flush the receiver's pending outputs; returns their count.

        Deliveries drain first, then control packets -- the base
        receiver's output discipline.
        """
        receiver = self.receiver
        chan = self.chan_r2t
        execution = self.execution
        fired = 0
        # has_pending_output() gates each round, so the common idle
        # pump costs a single call and a busy round never pops at a
        # deque it already knows is empty.
        while receiver.has_pending_output():
            message = receiver.pop_delivery()
            if message is not NO_OUTPUT:
                execution.record_receive_msg(message)
            else:
                packet = receiver.pop_control_packet()
                copy = chan.send(packet, execution.length)
                execution.record_send_pkt(Direction.R2T, packet, copy.copy_id)
            fired += 1
        return fired

    def deliver_copy(self, direction: Direction, copy_id: int) -> TransitCopy:
        """Deliver one transit copy to the station at its far end."""
        copy = self._channels[direction].deliver(copy_id)
        self.execution.record_receive_pkt(direction, copy.packet, copy.copy_id)
        if direction is Direction.T2R:
            self.receiver.accept_packet(copy.packet)
        else:
            self.sender.accept_packet(copy.packet)
        return copy

    def drop_copy(self, direction: Direction, copy_id: int) -> TransitCopy:
        """Lose one transit copy (no event is recorded: losses are
        invisible to every automaton in the model)."""
        return self._channels[direction].drop(copy_id)

    # ------------------------------------------------------------------
    # composite moves
    # ------------------------------------------------------------------
    def apply_decisions(self, decisions: Iterable[AnyDecision]) -> None:
        """Apply adversary decisions in order.

        The canonical decision form is the packed ``(kind, direction,
        copy_id)`` tuple; user-supplied
        :class:`~repro.channels.adversary.Decision` objects are
        converted on the way in (compat adapter), mixed freely.
        """
        deliver = DecisionKind.DELIVER
        for decision in decisions:
            if type(decision) is not tuple:
                decision = decision.packed()
            kind, direction, copy_id = decision
            if kind is deliver:
                self.deliver_copy(direction, copy_id)
            else:
                self.drop_copy(direction, copy_id)

    def flush_mandatory(self) -> int:
        """Deliver every copy the channels themselves mandate.

        Repeats until quiescent, because a delivery can trigger a
        response packet that is itself immediately due (e.g. over a
        probabilistic channel with a lucky coin).
        """
        delivered = 0
        chan_t2r = self.chan_t2r
        chan_r2t = self.chan_r2t
        while True:
            progress = 0
            for copy_id in chan_t2r.mandatory_deliveries():
                self.deliver_copy(Direction.T2R, copy_id)
                progress += 1
                # Let the receiver push acks out promptly so the
                # reverse channel sees them this same flush.
                self.pump_receiver()
            for copy_id in chan_r2t.mandatory_deliveries():
                self.deliver_copy(Direction.R2T, copy_id)
                progress += 1
            delivered += progress
            if progress == 0:
                return delivered

    def adversary_view(self) -> AdversaryView:
        """The read view handed to the adversary this step."""
        view = self._adversary_view
        view.step_index = self._step_index
        return view

    def step(self) -> None:
        """One scheduling round.  See the module docstring."""
        self.pump_receiver()
        self.pump_sender()
        self.flush_mandatory()
        adversary = self.adversary
        if adversary is not None:
            view = self.adversary_view() if adversary.needs_view else None
            decisions = adversary.decide(view)
            if decisions:
                self.apply_decisions(decisions)
                self.flush_mandatory()
        self.pump_receiver()
        if self._emit_internal:
            self.execution.record_internal("step", self._step_index)
        self._step_index += 1

    def run_steps(self, count: int) -> None:
        """Run ``count`` scheduling rounds."""
        for _ in range(count):
            self.step()

    def run(
        self,
        messages: Sequence[Hashable],
        max_steps: int = 100_000,
    ) -> DeliveryStats:
        """Deliver a message sequence end to end.

        The environment submits the next message whenever the sender
        reports :meth:`~repro.datalink.stations.SenderStation.ready_for_message`
        (the one-outstanding-message regime the paper analyses).  The
        run stops when every message has been delivered or the step
        budget is exhausted.  A negative ``max_steps`` raises
        :class:`ValueError`.
        """
        if max_steps < 0:
            raise ValueError(f"max_steps must be non-negative, got {max_steps}")
        pending = list(messages)
        goal = self.receiver.messages_delivered + len(pending)
        sp_t2r_before = self.execution.sp(Direction.T2R)
        sp_r2t_before = self.execution.sp(Direction.R2T)
        steps = 0
        submitted = 0
        def finished() -> bool:
            # Done means: everything delivered AND the sender has
            # digested the final confirmation, so the system is back in
            # a clean ready-for-the-next-message configuration.
            return (
                not pending
                and self.receiver.messages_delivered >= goal
                and self.sender.ready_for_message()
            )

        while steps < max_steps:
            if pending and self.sender.ready_for_message():
                self.submit_message(pending.pop(0))
                submitted += 1
            if finished():
                break
            self.step()
            steps += 1
        return DeliveryStats(
            submitted=submitted,
            delivered=len(messages) - (goal - self.receiver.messages_delivered),
            steps=steps,
            packets_t2r=self.execution.sp(Direction.T2R) - sp_t2r_before,
            packets_r2t=self.execution.sp(Direction.R2T) - sp_r2t_before,
            completed=finished(),
        )

    # ------------------------------------------------------------------
    # cloning (the "what would the protocol do" oracle used by the
    # extension finder and the replay attack)
    # ------------------------------------------------------------------
    def clone(
        self,
        adversary: Optional[ChannelAdversary] = None,
        trace_mode: TraceMode = TraceMode.FULL,
        sinks: Optional[Sequence[ExecutionSink]] = None,
    ) -> "DataLinkSystem":
        """Independent system in the same configuration.

        Stations and channel bags are deep-copied; the clone starts a
        fresh (empty) execution with its *own* sink stack, so counters
        measured on it cover only what happens after the cut.  Clones
        default to FULL tracing regardless of the parent's mode --
        their consumers (the extension finder, the replay attack) read
        event lists.  Parent sinks are never shared with the clone;
        pass fresh ones via ``sinks=`` to meter it.
        """
        twin = DataLinkSystem(
            sender=self.sender.clone(),  # type: ignore[arg-type]
            receiver=self.receiver.clone(),  # type: ignore[arg-type]
            chan_t2r=self.chan_t2r.clone(),
            chan_r2t=self.chan_r2t.clone(),
            adversary=adversary,
            sender_burst=self.sender_burst,
            trace_mode=trace_mode,
            sinks=sinks,
        )
        return twin


def make_system(
    sender: SenderStation,
    receiver: ReceiverStation,
    adversary: Optional[ChannelAdversary] = None,
    q: Optional[float] = None,
    seed: int = 0,
    trickle: TricklePolicy = TricklePolicy.NEVER,
    sender_burst: int = 1,
    trace_mode: TraceMode = TraceMode.FULL,
    sinks: Optional[Sequence[ExecutionSink]] = None,
) -> DataLinkSystem:
    """Convenience constructor for common configurations.

    With ``q`` set, both channels are probabilistic with error
    probability ``q`` (seeded deterministically from ``seed``);
    otherwise both are adversarial non-FIFO channels.
    """
    if q is None:
        chan_t2r: Channel = NonFifoChannel(Direction.T2R)
        chan_r2t: Channel = NonFifoChannel(Direction.R2T)
    else:
        import random

        chan_t2r = ProbabilisticChannel(
            Direction.T2R, q, rng=random.Random(seed), trickle=trickle
        )
        chan_r2t = ProbabilisticChannel(
            Direction.R2T, q, rng=random.Random(seed + 1), trickle=trickle
        )
    return DataLinkSystem(
        sender,
        receiver,
        chan_t2r,
        chan_r2t,
        adversary=adversary,
        sender_burst=sender_burst,
        trace_mode=trace_mode,
        sinks=sinks,
    )
