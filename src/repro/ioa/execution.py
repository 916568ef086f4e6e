"""Recorded executions (Definitions 1-4 of the paper).

An *execution* is a sequence of data-link-layer protocol actions
(Definition 1).  This module stores executions behind a small front:
every recorded action is announced once to a stack of observer sinks
(:mod:`repro.ioa.sinks`), and the views below read whichever sink can
answer them:

* the counting functions of Definition 2 -- ``sm``/``rm``/``sp^d``/
  ``rp^d`` -- and the distinct-packet sets (the paper's header count)
  come from the always-present :class:`~repro.ioa.sinks.CountsSink`,
  incrementally maintained and O(1) to read in every mode;
* event-level views (the action sequence, message payloads, the
  packet correspondence the (PL1)/(DL1) checkers consume, the receipt
  sequences the replay adversaries study) come from a
  :class:`~repro.ioa.sinks.FullTraceSink`, when one is attached.

Trace modes
-----------

:class:`TraceMode` survives as a constructor shim over the sink
stack:

* ``TraceMode.FULL`` (default) -- stack ``[CountsSink,
  FullTraceSink]``: every action is also materialised as an
  :class:`Event`.  Checking a recorded execution afterwards
  (:func:`~repro.datalink.spec.check_execution`) and the replay attack
  (:mod:`repro.core.replay`) require this mode.
* ``TraceMode.COUNTS`` -- stack ``[CountsSink]``: no ``Event`` or
  ``Action`` objects are allocated; event-level views raise
  :class:`TraceElidedError` naming the view and the active stack.  The
  spec can still be checked online, by attaching a
  :class:`~repro.datalink.spec.SpecSink`.

Either way, extra sinks (e.g. a
:class:`~repro.ioa.sinks.MetricsSink`) can be appended via the
``sinks=`` argument; they observe exactly the same event stream.  A
COUNTS-mode run reports exactly the same statistics as a FULL-mode
run of the same system (a property the trace-mode tests enforce).
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import (
    Callable,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
)

from repro.ioa.actions import Action, ActionType, Direction
from repro.ioa.sinks import CountsSink, ExecutionSink, FullTraceSink


class TraceMode(enum.Enum):
    """Constructor shim: which standard sinks an execution starts with.

    FULL: ``[CountsSink, FullTraceSink]`` -- every action becomes an
        :class:`Event` (the default; needed by the replay attack, the
        spec check of a recorded execution and anything that walks
        ``events``).
    COUNTS: ``[CountsSink]`` -- only the Definition-2 counters and
        packet-value sets are kept; per-event allocation is skipped
        entirely.
    """

    FULL = "full"
    COUNTS = "counts"


class TraceElidedError(RuntimeError):
    """An event-level view was requested but no trace sink is attached.

    Seeing this means a consumer that needs full traces (spec check of
    a recorded execution, replay, extension finder) was handed a
    counters-only execution; construct the system with
    ``trace_mode=TraceMode.FULL`` instead, or, to check the spec,
    attach a :class:`~repro.datalink.spec.SpecSink` to the run.  The
    message names the requested view and the active sink stack.
    """


@dataclass(frozen=True, slots=True)
class Event:
    """One recorded action occurrence.

    Attributes:
        index: position of the event in the execution (0-based).
        action: the action that occurred.
    """

    index: int
    action: Action

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.index}] {self.action}"


def _fan2(methods):
    """Two-argument fan-out over a tuple of bound sink methods."""

    def dispatch(a, b):
        for method in methods:
            method(a, b)

    return dispatch


def _fan4(methods):
    """Four-argument fan-out over a tuple of bound sink methods."""

    def dispatch(a, b, c, d):
        for method in methods:
            method(a, b, c, d)

    return dispatch


class Execution:
    """A recorded execution of the composed data link system.

    The engine appends events as they happen; analysis code treats the
    execution as read-only.  ``Execution`` deliberately knows nothing
    about protocols: it is the shared language between the engine, the
    specification checkers and the adversaries.  It owns nothing but
    the event counter -- all recorded state lives in the sinks.

    Args:
        events: initial events (requires a trace sink, i.e. FULL
            mode); counters are rebuilt from them.
        trace_mode: which standard sinks to start with; see
            :class:`TraceMode`.
        sinks: extra :class:`~repro.ioa.sinks.ExecutionSink` objects
            appended after the standard stack, in order.

    Attributes:
        length: number of recorded events (``len(execution)``); a plain
            slot rather than a property so the engine's hot loops can
            read the next event index without a call.
    """

    __slots__ = (
        "trace_mode",
        "_sinks",
        "_counts",
        "_trace",
        "length",
        "_on_action",
        "_on_send_pkt",
        "_on_receive_pkt",
        "_on_send_msg",
        "_on_receive_msg",
        "_on_internal",
        "wants_internal",
    )

    # Dispatchers over the sinks after the fused counts sink; ``None``
    # when that tail is empty (the common COUNTS-only case).
    _on_send_pkt: Optional[Callable[..., None]]
    _on_receive_pkt: Optional[Callable[..., None]]
    _on_send_msg: Optional[Callable[..., None]]
    _on_receive_msg: Optional[Callable[..., None]]
    _on_action: Callable[..., None]
    _on_internal: Callable[..., None]
    length: int
    wants_internal: bool

    def __init__(
        self,
        events: Optional[List[Event]] = None,
        trace_mode: TraceMode = TraceMode.FULL,
        sinks: Optional[Sequence[ExecutionSink]] = None,
    ) -> None:
        if events and trace_mode is TraceMode.COUNTS:
            raise ValueError("cannot seed a COUNTS-mode execution with events")
        self.trace_mode = trace_mode
        self._counts = CountsSink()
        self._trace: Optional[FullTraceSink] = None
        stack: List[ExecutionSink] = [self._counts]
        if trace_mode is TraceMode.FULL:
            self._trace = FullTraceSink()
            stack.append(self._trace)
        if sinks:
            stack.extend(sinks)
        self._sinks = tuple(stack)
        self.length = 0
        self._bind_dispatch()
        if events:
            for event in events:
                self.record(event.action)

    def _bind_dispatch(self) -> None:
        """Precompute the per-event dispatchers.

        The counts sink is always first in the stack and its updates
        are *fused* into the typed recorders below (so a plain COUNTS
        execution records an event in a single call, exactly matching
        the standalone :class:`~repro.ioa.sinks.CountsSink` semantics
        -- the sink tests pin the equivalence).  The dispatchers bound
        here therefore cover only the sinks *after* it: ``None`` when
        there are none, the one bound method when there is one, a
        fixed-arity fan-out closure otherwise.  ``record`` (the generic
        ``Action`` entry point) is off the hot path and dispatches over
        the full stack, counts included.
        """
        sinks = self._sinks
        self._on_action = _fan2(tuple(s.on_action for s in sinks))
        rest = sinks[1:]
        if not rest:
            self._on_send_pkt = None
            self._on_receive_pkt = None
            self._on_send_msg = None
            self._on_receive_msg = None
        elif len(rest) == 1:
            only = rest[0]
            self._on_send_pkt = only.on_send_pkt
            self._on_receive_pkt = only.on_receive_pkt
            self._on_send_msg = only.on_send_msg
            self._on_receive_msg = only.on_receive_msg
        else:
            self._on_send_pkt = _fan4(tuple(s.on_send_pkt for s in rest))
            self._on_receive_pkt = _fan4(
                tuple(s.on_receive_pkt for s in rest)
            )
            self._on_send_msg = _fan2(tuple(s.on_send_msg for s in rest))
            self._on_receive_msg = _fan2(
                tuple(s.on_receive_msg for s in rest)
            )
        internal = tuple(s.on_internal for s in sinks if s.wants_internal)
        self.wants_internal = bool(internal)
        if len(internal) == 1:
            self._on_internal = internal[0]
        else:
            self._on_internal = _fan2(internal)

    # ------------------------------------------------------------------
    # the sink stack
    # ------------------------------------------------------------------
    @property
    def sinks(self) -> tuple:
        """The attached sinks, in dispatch order."""
        return self._sinks

    @property
    def events(self) -> List[Event]:
        """The materialised event list (empty when no trace sink)."""
        trace = self._trace
        return trace.events if trace is not None else []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, action: Action) -> Optional[Event]:
        """Append ``action`` as the next event.

        Returns the materialised :class:`Event` when a trace sink is
        attached, else ``None``.
        """
        index = self.length
        self.length = index + 1
        self._on_action(action, index)
        trace = self._trace
        return trace.events[-1] if trace is not None else None

    def record_send_pkt(
        self, direction: Direction, packet: Hashable, copy_id: Optional[int]
    ) -> None:
        """Engine hot-path recorder for ``send_pkt`` events.

        Equivalent to ``record(send_pkt(direction, packet, copy_id))``
        but hands the fields straight to the sink stack, so no
        :class:`~repro.ioa.actions.Action` is built unless a sink
        builds one.  The counts sink's update is fused inline (see
        :meth:`_bind_dispatch`).
        """
        index = self.length
        self.length = index + 1
        counts = self._counts
        if direction is Direction.T2R:
            counts.sp_t2r += 1
            if packet is not counts._last_sent_t2r:
                counts.distinct_t2r.add(packet)
                counts._last_sent_t2r = packet
        else:
            counts.sp_r2t += 1
            if packet is not counts._last_sent_r2t:
                counts.distinct_r2t.add(packet)
                counts._last_sent_r2t = packet
        rest = self._on_send_pkt
        if rest is not None:
            rest(direction, packet, copy_id, index)

    def record_receive_pkt(
        self, direction: Direction, packet: Hashable, copy_id: Optional[int]
    ) -> None:
        """Hot-path recorder for ``receive_pkt``; see
        :meth:`record_send_pkt`."""
        index = self.length
        self.length = index + 1
        counts = self._counts
        if direction is Direction.T2R:
            counts.rp_t2r += 1
        else:
            counts.rp_r2t += 1
        rest = self._on_receive_pkt
        if rest is not None:
            rest(direction, packet, copy_id, index)

    def record_send_msg(self, message: Hashable) -> None:
        """Hot-path recorder for ``send_msg``; see
        :meth:`record_send_pkt`."""
        index = self.length
        self.length = index + 1
        self._counts.sm += 1
        rest = self._on_send_msg
        if rest is not None:
            rest(message, index)

    def record_receive_msg(self, message: Hashable) -> None:
        """Hot-path recorder for ``receive_msg``; see
        :meth:`record_send_pkt`."""
        index = self.length
        self.length = index + 1
        self._counts.rm += 1
        rest = self._on_receive_msg
        if rest is not None:
            rest(message, index)

    def record_internal(self, tag: str, payload=None) -> None:
        """Out-of-band telemetry: forwarded to interested sinks only,
        consumes no event index.  Callers should guard on
        :attr:`wants_internal`."""
        if self.wants_internal:
            self._on_internal(tag, payload)

    def extend(self, actions: Iterable[Action]) -> None:
        """Append several actions in order."""
        for action in actions:
            self.record(action)

    @property
    def events_elided(self) -> int:
        """Events skipped (never allocated) for lack of a trace sink."""
        return 0 if self._trace is not None else self.length

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    def _require_events(self, what: str) -> List[Event]:
        trace = self._trace
        if trace is None:
            stack = ", ".join(type(s).__name__ for s in self._sinks)
            raise TraceElidedError(
                f"{what} needs materialised events, but this execution's "
                f"sink stack [{stack}] contains no FullTraceSink, so the "
                f"{self.length} recorded events were elided.  Construct "
                "the system with trace_mode=TraceMode.FULL to keep them."
            )
        return trace.events

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[Event]:
        return iter(self._require_events("iteration"))

    def __getitem__(self, index: int) -> Event:
        return self._require_events("indexing")[index]

    def actions(self) -> List[Action]:
        """The bare action sequence."""
        return [event.action for event in self._require_events("actions()")]

    def prefix(self, length: int) -> "Execution":
        """The execution consisting of the first ``length`` events."""
        return Execution(list(self._require_events("prefix()")[:length]))

    def suffix_actions(self, start: int) -> List[Action]:
        """Actions of events with ``index >= start``."""
        return [
            event.action
            for event in self._require_events("suffix_actions()")
            if event.index >= start
        ]

    # ------------------------------------------------------------------
    # Definition 2: counting functions (O(1); maintained incrementally)
    # ------------------------------------------------------------------
    def sm(self) -> int:
        """Number of ``send_msg`` actions."""
        return self._counts.sm

    def rm(self) -> int:
        """Number of ``receive_msg`` actions."""
        return self._counts.rm

    def sp(self, direction: Direction) -> int:
        """Number of ``send_pkt`` actions in ``direction``."""
        counts = self._counts
        return (
            counts.sp_t2r if direction is Direction.T2R else counts.sp_r2t
        )

    def rp(self, direction: Direction) -> int:
        """Number of ``receive_pkt`` actions in ``direction``."""
        counts = self._counts
        return (
            counts.rp_t2r if direction is Direction.T2R else counts.rp_r2t
        )

    # ------------------------------------------------------------------
    # message views
    # ------------------------------------------------------------------
    def sent_messages(self) -> List[Hashable]:
        """Payloads of ``send_msg`` actions, in order."""
        return [
            event.action.message
            for event in self._require_events("sent_messages()")
            if event.action.type is ActionType.SEND_MSG
        ]

    def received_messages(self) -> List[Hashable]:
        """Payloads of ``receive_msg`` actions, in order."""
        return [
            event.action.message
            for event in self._require_events("received_messages()")
            if event.action.type is ActionType.RECEIVE_MSG
        ]

    # ------------------------------------------------------------------
    # packet views
    # ------------------------------------------------------------------
    def packet_events(
        self, action_type: ActionType, direction: Direction
    ) -> List[Event]:
        """All packet events of the given kind and direction, in order."""
        return [
            event
            for event in self._require_events("packet_events()")
            if event.action.type is action_type
            and event.action.direction is direction
        ]

    def sent_packet_values(self, direction: Direction) -> Counter:
        """Multiset of packet values sent in ``direction``."""
        return Counter(
            event.action.packet
            for event in self.packet_events(ActionType.SEND_PKT, direction)
        )

    def received_packet_values(self, direction: Direction) -> Counter:
        """Multiset of packet values received in ``direction``."""
        return Counter(
            event.action.packet
            for event in self.packet_events(ActionType.RECEIVE_PKT, direction)
        )

    def received_packet_sequence(self, direction: Direction) -> List[Hashable]:
        """Packet values received in ``direction``, in receipt order.

        This sequence is the entire view the receiving station has of
        the channel; two executions with equal receipt sequences are
        indistinguishable to a deterministic station.  The replay
        attack (:mod:`repro.core.replay`) reproduces this sequence from
        stale transit copies.
        """
        return [
            event.action.packet
            for event in self.packet_events(ActionType.RECEIVE_PKT, direction)
        ]

    def distinct_packets(self, direction: Optional[Direction] = None) -> set:
        """Set of distinct packet values sent (the paper's header count.)

        The paper measures header usage as the number of distinct
        packets ``|P|`` sent in valid executions (Section 2.3,
        "Headers").  When ``direction`` is ``None`` both channels are
        counted together.  Available in every trace mode (the counts
        sink maintains the sets incrementally).
        """
        counts = self._counts
        if direction is Direction.T2R:
            return set(counts.distinct_t2r)
        if direction is Direction.R2T:
            return set(counts.distinct_r2t)
        return counts.distinct_t2r | counts.distinct_r2t

    def header_count(self, direction: Optional[Direction] = None) -> int:
        """``len(distinct_packets(direction))``."""
        return len(self.distinct_packets(direction))

    # ------------------------------------------------------------------
    # correspondence (used by the PL1 / DL1 checkers)
    # ------------------------------------------------------------------
    def copy_send_index(self, direction: Direction) -> dict:
        """Map transit-copy id -> index of its ``send_pkt`` event."""
        mapping = {}
        for event in self.packet_events(ActionType.SEND_PKT, direction):
            if event.action.copy_id is not None:
                mapping[event.action.copy_id] = event.index
        return mapping

    def copy_receive_indices(self, direction: Direction) -> dict:
        """Map transit-copy id -> list of its ``receive_pkt`` event indices.

        A law-abiding channel produces lists of length at most one; the
        PL1 checker flags anything longer as duplication.
        """
        mapping: dict = {}
        for event in self.packet_events(ActionType.RECEIVE_PKT, direction):
            if event.action.copy_id is not None:
                mapping.setdefault(event.action.copy_id, []).append(event.index)
        return mapping

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self._trace is None:
            counts = self._counts
            return (
                f"<Execution [{', '.join(type(s).__name__ for s in self._sinks)}]: "
                f"{self.length} actions, "
                f"sm={counts.sm} rm={counts.rm} "
                f"sp=({counts.sp_t2r}, {counts.sp_r2t})>"
            )
        return "\n".join(str(event) for event in self._trace.events)
