"""Machine-checkable data link and physical layer specifications.

The properties of Section 2, decided by one implementation,
:class:`SpecSink`:

* (PL1), the physical safety property: every ``receive_pkt``
  corresponds to a unique preceding ``send_pkt`` of the same value, and
  no send is received twice.  Checked per channel direction.
* (DL1): a correspondence exists between ``receive_msg`` and preceding
  ``send_msg`` actions (no forgery, no duplication).
* (DL1) and (DL2) together: the correspondence additionally preserves
  order (FIFO delivery).
* the finite-execution reading of (DL3): every submitted message was
  delivered by the end of the run (a *budgeted* liveness obligation;
  genuine (DL3) is a property of infinite executions).

The three safety properties break at a single event, and no later event
repairs the break, so the sink checks them one event at a time and
keeps the earliest violation of each.  Attached to a live run it checks
the run as it happens, in any trace mode; built with ``stop=True`` it
raises :class:`SpecViolated` from the hook that records the first
violation, which ends the run there.

The functions :func:`check_pl1`, :func:`check_dl1`,
:func:`check_dl1_dl2`, :func:`check_liveness` and
:func:`check_execution` judge a recorded execution by replaying its
events through one sink.  The per-property checks return ``None`` on
success and the earliest :class:`SpecViolation` otherwise, and
:func:`check_execution` collects everything in a :class:`SpecReport`.
None of them raises on bad executions -- producing (and then
detecting!) invalid executions is the whole point of the lower-bound
adversaries.

Matching strategy.  (DL1) asks for an injective mapping of receives to
preceding sends with equal payloads.  Scanning receives in order and
greedily matching each to the *earliest unused* preceding send of the
same payload is complete: within one payload class the candidate sets
of successive receives are nested prefixes, so if any injective
matching exists the greedy one does -- and the greedy matching only
needs a count of unmatched sends per payload.  For (DL1)+(DL2) the
mapping must also be order-preserving across *all* messages, so the
greedy cursor is global: each receive must match a send strictly later
than the previous receive's send, again earliest-first.  Sends the
cursor passes can never be matched, so the sink forgets them.

Trace modes.  A :class:`SpecSink` attached to a run needs no event
list, so it checks ``TraceMode.COUNTS`` runs too.  The ``check_*``
functions replay a recorded event list, so they need an execution
recorded under ``TraceMode.FULL`` (the default); handed a
counters-only execution they raise
:class:`~repro.ioa.execution.TraceElidedError`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Hashable, List, Optional, Set

from repro.ioa.actions import ActionType, Direction
from repro.ioa.execution import Execution
from repro.ioa.sinks import ExecutionSink


@dataclass(frozen=True)
class SpecViolation:
    """One specification violation, anchored at an event index."""

    property_name: str
    event_index: int
    description: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.property_name} violated at event "
            f"{self.event_index}: {self.description}"
        )


@dataclass
class SpecReport:
    """Combined result of running every checker on one execution."""

    violations: List[SpecViolation] = field(default_factory=list)
    pending_messages: int = 0

    @property
    def ok(self) -> bool:
        """True when no safety property was violated."""
        return not self.violations

    @property
    def valid(self) -> bool:
        """The paper's Definition 3: safety holds *and* every message
        was delivered (the finite reading of (DL3))."""
        return self.ok and self.pending_messages == 0

    def by_property(self, name: str) -> List[SpecViolation]:
        """Violations of one property."""
        return [v for v in self.violations if v.property_name == name]


class SpecViolated(Exception):
    """Raised by a ``SpecSink(stop=True)`` at the first violation.

    Attributes:
        violation: the :class:`SpecViolation` that ended the run.
    """

    def __init__(self, violation: SpecViolation) -> None:
        super().__init__(str(violation))
        self.violation = violation


# Markers in a channel's copy map; see _ChannelState.
_IN_TRANSIT = object()
_RECEIVED = object()
_T2R = Direction.T2R


class _ChannelState:
    """(PL1) bookkeeping for one channel direction."""

    __slots__ = ("copies", "violation")

    def __init__(self, initial_transit: Optional[Set[int]]) -> None:
        # copy id -> the sent packet while the copy is live,
        # ``_IN_TRANSIT`` for a copy in transit before the recording
        # started, ``_RECEIVED`` once a copy sent during the recording
        # was received.  A copy id is minted once, so a send of an id
        # already here is a second send.  A pre-recording copy is
        # dropped when received, since its id was never sent during
        # the recording.  An absent id reads as ``_RECEIVED``: either
        # way no live copy is left to deliver.
        self.copies: Dict[int, object] = dict.fromkeys(
            initial_transit or (), _IN_TRANSIT
        )
        self.violation: Optional[SpecViolation] = None


class SpecSink(ExecutionSink):
    """Checks (PL1), (DL1) and (DL1)+(DL2) one event at a time.

    Keeps the earliest violation of each property (PL1 per direction)
    and the per-payload count of sends that (DL1)'s greedy matching
    left unmatched; :meth:`report` turns them into a
    :class:`SpecReport`.

    Args:
        initial_transit_t2r: copy ids legitimately in transit on the
            forward channel before the recording started (extensions of
            earlier executions may deliver copies whose sends predate
            the recording).
        initial_transit_r2t: the same for the reverse channel.
        stop: raise :class:`SpecViolated` from the hook that records
            the first violation, after the sink has taken in the whole
            violating event.  Sinks attached after this one do not see
            that event.
    """

    __slots__ = ("stop", "dl1", "dl1_dl2", "_t2r", "_r2t", "_unmatched",
                 "_fifo")

    def __init__(
        self,
        initial_transit_t2r: Optional[Set[int]] = None,
        initial_transit_r2t: Optional[Set[int]] = None,
        stop: bool = False,
    ) -> None:
        self.stop = stop
        self.dl1: Optional[SpecViolation] = None
        self.dl1_dl2: Optional[SpecViolation] = None
        self._t2r = _ChannelState(initial_transit_t2r)
        self._r2t = _ChannelState(initial_transit_r2t)
        # payload -> sends not yet matched by (DL1)'s greedy matching.
        self._unmatched: Dict[Hashable, int] = {}
        # Payloads of the sends at or after (DL2)'s cursor, in order.
        self._fifo: Deque[Hashable] = deque()

    def pl1(self, direction: Direction) -> Optional[SpecViolation]:
        """The earliest (PL1) violation on one channel direction."""
        channel = self._t2r if direction is _T2R else self._r2t
        return channel.violation

    @property
    def pending_messages(self) -> int:
        """Sends left unmatched by (DL1)'s matching.  Equal to
        ``sm - rm`` whenever (DL1) holds; a forged delivery matches no
        send, so it never cancels one that was not delivered."""
        return sum(self._unmatched.values())

    def report(self) -> SpecReport:
        """Violations in a fixed order (PL1 t->r, PL1 r->t, DL1,
        DL1/DL2) and the pending-message count."""
        found = (self._t2r.violation, self._r2t.violation, self.dl1,
                 self.dl1_dl2)
        return SpecReport(
            [violation for violation in found if violation is not None],
            self.pending_messages,
        )

    # ------------------------------------------------------------------
    # (PL1)
    # ------------------------------------------------------------------
    def on_send_pkt(
        self,
        direction: Direction,
        packet: Hashable,
        copy_id: Optional[int],
        index: int,
    ) -> None:
        if copy_id is None:
            return
        channel = self._t2r if direction is _T2R else self._r2t
        if channel.violation is not None:
            return
        copies = channel.copies
        if copy_id in copies:
            self._pl1_violated(
                channel, SpecViolation(
                    "PL1", index, f"copy #{copy_id} sent twice"
                )
            )
            return
        copies[copy_id] = packet

    def on_receive_pkt(
        self,
        direction: Direction,
        packet: Hashable,
        copy_id: Optional[int],
        index: int,
    ) -> None:
        if copy_id is None:
            return
        channel = self._t2r if direction is _T2R else self._r2t
        if channel.violation is not None:
            return
        copies = channel.copies
        sent_as = copies.get(copy_id, _RECEIVED)
        if sent_as is _RECEIVED:
            self._pl1_violated(
                channel, SpecViolation(
                    "PL1",
                    index,
                    f"copy #{copy_id} received without a live "
                    "preceding send (forgery or duplication)",
                )
            )
        elif sent_as is _IN_TRANSIT:
            del copies[copy_id]
        else:
            copies[copy_id] = _RECEIVED
            if sent_as != packet:
                self._pl1_violated(
                    channel, SpecViolation(
                        "PL1",
                        index,
                        f"copy #{copy_id} delivered with value "
                        f"{packet!r}, sent as {sent_as!r} (corruption)",
                    )
                )

    def _pl1_violated(
        self, channel: _ChannelState, violation: SpecViolation
    ) -> None:
        channel.violation = violation
        if self.stop:
            raise SpecViolated(violation)

    # ------------------------------------------------------------------
    # (DL1) and (DL1)+(DL2)
    # ------------------------------------------------------------------
    def on_send_msg(self, message: Hashable, index: int) -> None:
        unmatched = self._unmatched
        unmatched[message] = unmatched.get(message, 0) + 1
        if self.dl1_dl2 is None:
            self._fifo.append(message)

    def on_receive_msg(self, message: Hashable, index: int) -> None:
        first: Optional[SpecViolation] = None
        unmatched = self._unmatched
        left = unmatched.get(message, 0)
        if left:
            unmatched[message] = left - 1
        elif self.dl1 is None:
            first = self.dl1 = SpecViolation(
                "DL1",
                index,
                f"receive_msg({message!r}) has no unmatched "
                "preceding send_msg (forged or duplicated delivery)",
            )
        if self.dl1_dl2 is None:
            fifo = self._fifo
            while fifo:
                if fifo.popleft() == message:
                    break
            else:
                self.dl1_dl2 = SpecViolation(
                    "DL1/DL2",
                    index,
                    f"receive_msg({message!r}) cannot be matched "
                    "order-preservingly to a preceding send_msg",
                )
                if first is None:
                    first = self.dl1_dl2
        if first is not None and self.stop:
            raise SpecViolated(first)


# ----------------------------------------------------------------------
# checking a recorded execution
# ----------------------------------------------------------------------
def _replay(
    execution: Execution,
    initial_transit_t2r: Optional[Set[int]] = None,
    initial_transit_r2t: Optional[Set[int]] = None,
) -> SpecSink:
    """Feed every recorded event, in order, through one fresh sink.

    Raises:
        TraceElidedError: if ``execution`` was recorded in
            ``TraceMode.COUNTS`` (there are no events to replay).
    """
    sink = SpecSink(initial_transit_t2r, initial_transit_r2t)
    on_send_pkt = sink.on_send_pkt
    on_receive_pkt = sink.on_receive_pkt
    on_send_msg = sink.on_send_msg
    on_receive_msg = sink.on_receive_msg
    send_pkt_type = ActionType.SEND_PKT
    receive_pkt_type = ActionType.RECEIVE_PKT
    send_msg_type = ActionType.SEND_MSG
    for event in execution:
        action = event.action
        kind = action.type
        if kind is send_pkt_type:
            on_send_pkt(
                action.direction, action.packet, action.copy_id, event.index
            )
        elif kind is receive_pkt_type:
            on_receive_pkt(
                action.direction, action.packet, action.copy_id, event.index
            )
        elif kind is send_msg_type:
            on_send_msg(action.message, event.index)
        else:
            on_receive_msg(action.message, event.index)
    return sink


def check_pl1(
    execution: Execution,
    direction: Direction,
    initial_transit: Optional[Set[int]] = None,
) -> Optional[SpecViolation]:
    """Check (PL1) on one channel direction.

    Args:
        execution: the recorded execution.
        direction: which channel to check.
        initial_transit: copy ids legitimately in transit before the
            recording started (extensions of earlier executions may
            deliver copies whose sends predate the recording).
    """
    forward = direction is Direction.T2R
    sink = _replay(
        execution,
        initial_transit if forward else None,
        None if forward else initial_transit,
    )
    return sink.pl1(direction)


def check_dl1(execution: Execution) -> Optional[SpecViolation]:
    """Check (DL1): injective receive->preceding-send correspondence."""
    return _replay(execution).dl1


def check_dl1_dl2(execution: Execution) -> Optional[SpecViolation]:
    """Check (DL1) and (DL2) together: the correspondence must also be
    order-preserving (messages delivered in the order they were sent).
    """
    return _replay(execution).dl1_dl2


def check_liveness(execution: Execution) -> int:
    """Finite-execution (DL3): return the number of pending messages.

    A message is pending when (DL1)'s matching left its send unmatched.
    Zero means every ``send_msg`` has a matching ``receive_msg`` --
    i.e. the execution is *valid* (Definition 3) provided the safety
    checkers pass too.  Positive values are not violations by
    themselves (any prefix of a valid execution may have messages in
    flight); run-level tests compare against a progress budget.
    """
    return _replay(execution).pending_messages


def check_execution(
    execution: Execution,
    initial_transit_t2r: Optional[Set[int]] = None,
    initial_transit_r2t: Optional[Set[int]] = None,
) -> SpecReport:
    """Check every property in one pass and collect the results.

    Raises:
        TraceElidedError: if ``execution`` was recorded in
            ``TraceMode.COUNTS`` (attach a :class:`SpecSink` to such a
            run instead).
    """
    return _replay(
        execution, initial_transit_t2r, initial_transit_r2t
    ).report()
