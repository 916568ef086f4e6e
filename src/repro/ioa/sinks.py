"""Observer sinks: the recording pipeline behind :class:`Execution`.

Every action the engine performs is announced exactly once, to a
*stack of sinks*.  A sink is any object with the five hooks of
:class:`ExecutionSink`; what used to be two forked recording paths
(FULL materialisation vs COUNTS elision, selected by per-class gates
inside the engine) is now one dispatch point whose behaviour is
entirely determined by which sinks are attached:

* :class:`CountsSink` -- the incremental Definition-2 counters
  (``sm``/``rm``/``sp^d``/``rp^d``), the distinct-packet sets (the
  paper's header count) and nothing else.  Zero allocation per event;
  always first in the stack, so counter reads are O(1) in every mode.
* :class:`FullTraceSink` -- materialises every action as an
  :class:`~repro.ioa.execution.Event`.  Present exactly when the
  execution runs in ``TraceMode.FULL``; the replay attack, the
  extension finder and the spec check of a recorded execution read its
  event list.  A live run needs no event list to be spec-checked:
  :class:`~repro.datalink.spec.SpecSink` checks it one event at a time.
* :class:`MetricsSink` -- cheap operational telemetry (per-direction
  packet counts and rates, peak copies outstanding, engine steps,
  optional step latencies).  Attach one to export engine health into
  ``ExperimentResult.metrics`` and the run manifest.

Composition order is fixed: the counts sink first, the trace sink
second (when present), then any caller-supplied sinks in attachment
order.  Custom sinks subclass :class:`ExecutionSink` and override only
the hooks they care about; see ``examples/custom_sink.py`` for a
worked example.

Hook contract: ``index`` is the event's position in the execution
(0-based, assigned by the execution front).  ``on_internal`` is
out-of-band -- it consumes no event index and is used for engine
telemetry such as step boundaries; the execution only forwards it when
some attached sink actually overrides it.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Hashable, List, Optional

from repro.ioa.actions import (
    Action,
    ActionType,
    Direction,
    receive_msg,
    receive_pkt,
    send_msg,
    send_pkt,
)


class ExecutionSink:
    """Base class for execution observers.  Every hook is a no-op.

    Subclass and override the hooks you need; the execution front
    binds them once per stack, so an unused hook costs nothing beyond
    the dispatch call.
    """

    __slots__ = ()

    #: Whether this sink wants the out-of-band ``on_internal`` marks
    #: (e.g. engine step boundaries).  The execution front only emits
    #: them -- and the engine only produces them -- when some attached
    #: sink says ``True``, so declining keeps the hot loop mark-free.
    #: May be shadowed per instance.
    wants_internal: bool = False

    def on_send_msg(self, message: Hashable, index: int) -> None:
        """``send_msg(message)`` was recorded as event ``index``."""

    def on_receive_msg(self, message: Hashable, index: int) -> None:
        """``receive_msg(message)`` was recorded as event ``index``."""

    def on_send_pkt(
        self,
        direction: Direction,
        packet: Hashable,
        copy_id: Optional[int],
        index: int,
    ) -> None:
        """``send_pkt`` was recorded as event ``index``."""

    def on_receive_pkt(
        self,
        direction: Direction,
        packet: Hashable,
        copy_id: Optional[int],
        index: int,
    ) -> None:
        """``receive_pkt`` was recorded as event ``index``."""

    def on_action(self, action: Action, index: int) -> None:
        """Generic entry point: dispatch a pre-built action.

        The default unpacks the action into the typed hooks above, so
        sinks normally override those; override this only to observe
        the :class:`~repro.ioa.actions.Action` object itself.
        """
        kind = action.type
        if kind is ActionType.SEND_PKT:
            self.on_send_pkt(
                action.direction, action.packet, action.copy_id, index
            )
        elif kind is ActionType.RECEIVE_PKT:
            self.on_receive_pkt(
                action.direction, action.packet, action.copy_id, index
            )
        elif kind is ActionType.SEND_MSG:
            self.on_send_msg(action.message, index)
        else:
            self.on_receive_msg(action.message, index)

    def on_internal(self, tag: str, payload: Any = None) -> None:
        """Out-of-band engine telemetry (e.g. ``"step"`` boundaries)."""


class CountsSink(ExecutionSink):
    """The Definition-2 counters, maintained incrementally.

    Scalar slots rather than an enum-keyed dict: the hot paths bump
    them tens of thousands of times per run and an attribute store
    beats a dict item store with an ``Enum.__hash__`` behind it.
    """

    __slots__ = (
        "sm",
        "rm",
        "sp_t2r",
        "sp_r2t",
        "rp_t2r",
        "rp_r2t",
        "distinct_t2r",
        "distinct_r2t",
        "_last_sent_t2r",
        "_last_sent_r2t",
    )

    def __init__(self) -> None:
        self.sm = 0
        self.rm = 0
        self.sp_t2r = 0
        self.sp_r2t = 0
        self.rp_t2r = 0
        self.rp_r2t = 0
        self.distinct_t2r: set = set()
        self.distinct_r2t: set = set()
        # Identity memo for the distinct-value sets: stations re-offer
        # the *same* Packet object across retransmissions, so an `is`
        # check skips the hash-and-probe for the typical send run.
        self._last_sent_t2r: object = None
        self._last_sent_r2t: object = None

    def on_send_pkt(
        self,
        direction: Direction,
        packet: Hashable,
        copy_id: Optional[int],
        index: int,
    ) -> None:
        if direction is Direction.T2R:
            self.sp_t2r += 1
            if packet is not self._last_sent_t2r:
                self.distinct_t2r.add(packet)
                self._last_sent_t2r = packet
        else:
            self.sp_r2t += 1
            if packet is not self._last_sent_r2t:
                self.distinct_r2t.add(packet)
                self._last_sent_r2t = packet

    def on_receive_pkt(
        self,
        direction: Direction,
        packet: Hashable,
        copy_id: Optional[int],
        index: int,
    ) -> None:
        if direction is Direction.T2R:
            self.rp_t2r += 1
        else:
            self.rp_r2t += 1

    def on_send_msg(self, message: Hashable, index: int) -> None:
        self.sm += 1

    def on_receive_msg(self, message: Hashable, index: int) -> None:
        self.rm += 1


class FullTraceSink(ExecutionSink):
    """Materialises every recorded action as an ``Event``.

    The event list feeds everything that replays or audits history:
    the spec check of a recorded execution, the replay attack, the
    extension finder and the clone machinery.
    """

    __slots__ = ("events", "_event_cls")

    def __init__(self) -> None:
        # The Event class lives in repro.ioa.execution; imported
        # lazily to keep the module dependency one-directional at
        # import time (execution imports sinks).
        from repro.ioa.execution import Event

        self._event_cls = Event
        self.events: List = []

    def on_send_pkt(
        self,
        direction: Direction,
        packet: Hashable,
        copy_id: Optional[int],
        index: int,
    ) -> None:
        self.events.append(
            self._event_cls(index, send_pkt(direction, packet, copy_id))
        )

    def on_receive_pkt(
        self,
        direction: Direction,
        packet: Hashable,
        copy_id: Optional[int],
        index: int,
    ) -> None:
        self.events.append(
            self._event_cls(index, receive_pkt(direction, packet, copy_id))
        )

    def on_send_msg(self, message: Hashable, index: int) -> None:
        self.events.append(self._event_cls(index, send_msg(message)))

    def on_receive_msg(self, message: Hashable, index: int) -> None:
        self.events.append(self._event_cls(index, receive_msg(message)))

    def on_action(self, action: Action, index: int) -> None:
        # Preserve the caller's Action object identity (consumers may
        # have recorded the same instance elsewhere).
        self.events.append(self._event_cls(index, action))


class MetricsSink(ExecutionSink):
    """Operational telemetry over one execution.

    Tracks, per direction, how many packets were sent and received and
    the peak number of copies *outstanding* (sent but not yet received
    -- an upper bound on in-transit copies, since losses are invisible
    to the model's automata and hence to any sink), plus message
    counts and engine steps.  ``snapshot()`` exports everything as a
    flat numeric dict, ready for ``ExperimentResult.metrics`` and the
    run manifest's ``totals.metrics`` aggregation.

    Step accounting rides on the engine's ``"step"`` marks, which cost
    a few calls per engine step to produce; pass ``count_steps=False``
    to decline them (``steps`` then stays 0 and the rate/latency
    fields are omitted from :meth:`snapshot`) -- the bulk E4 sweeps do
    this and take their step totals from the run statistics instead.
    Step latencies are additionally opt-in: pass
    ``clock=time.perf_counter`` (or any zero-argument float callable)
    and the sink times the gap between consecutive marks.
    """

    __slots__ = (
        "sent_t2r",
        "sent_r2t",
        "received_t2r",
        "received_r2t",
        "messages_sent",
        "messages_delivered",
        "peak_outstanding_t2r",
        "peak_outstanding_r2t",
        "steps",
        "step_time_total",
        "step_time_max",
        "_clock",
        "_last_mark",
        "wants_internal",
    )

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        count_steps: bool = True,
    ) -> None:
        self.sent_t2r = 0
        self.sent_r2t = 0
        self.received_t2r = 0
        self.received_r2t = 0
        self.messages_sent = 0
        self.messages_delivered = 0
        self.peak_outstanding_t2r = 0
        self.peak_outstanding_r2t = 0
        self.steps = 0
        self.step_time_total = 0.0
        self.step_time_max = 0.0
        self._clock = clock
        self._last_mark: Optional[float] = None
        self.wants_internal = count_steps or clock is not None

    @classmethod
    def timed(cls) -> "MetricsSink":
        """A sink that also measures wall-clock step latencies."""
        return cls(clock=time.perf_counter)

    def on_send_pkt(
        self,
        direction: Direction,
        packet: Hashable,
        copy_id: Optional[int],
        index: int,
    ) -> None:
        if direction is Direction.T2R:
            self.sent_t2r += 1
            outstanding = self.sent_t2r - self.received_t2r
            if outstanding > self.peak_outstanding_t2r:
                self.peak_outstanding_t2r = outstanding
        else:
            self.sent_r2t += 1
            outstanding = self.sent_r2t - self.received_r2t
            if outstanding > self.peak_outstanding_r2t:
                self.peak_outstanding_r2t = outstanding

    def on_receive_pkt(
        self,
        direction: Direction,
        packet: Hashable,
        copy_id: Optional[int],
        index: int,
    ) -> None:
        if direction is Direction.T2R:
            self.received_t2r += 1
        else:
            self.received_r2t += 1

    def on_send_msg(self, message: Hashable, index: int) -> None:
        self.messages_sent += 1

    def on_receive_msg(self, message: Hashable, index: int) -> None:
        self.messages_delivered += 1

    def on_internal(self, tag: str, payload: Any = None) -> None:
        if tag != "step":
            return
        self.steps += 1
        clock = self._clock
        if clock is None:
            return
        now = clock()
        last = self._last_mark
        self._last_mark = now
        if last is not None:
            elapsed = now - last
            self.step_time_total += elapsed
            if elapsed > self.step_time_max:
                self.step_time_max = elapsed

    def snapshot(self) -> Dict[str, float]:
        """Flat numeric export (manifest- and JSON-friendly)."""
        out: Dict[str, float] = {
            "pkt_sent_t2r": self.sent_t2r,
            "pkt_sent_r2t": self.sent_r2t,
            "pkt_received_t2r": self.received_t2r,
            "pkt_received_r2t": self.received_r2t,
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "peak_outstanding_t2r": self.peak_outstanding_t2r,
            "peak_outstanding_r2t": self.peak_outstanding_r2t,
            "engine_steps": self.steps,
        }
        if self.steps:
            out["pkt_rate_t2r"] = round(self.sent_t2r / self.steps, 6)
            out["pkt_rate_r2t"] = round(self.sent_r2t / self.steps, 6)
        if self._clock is not None:
            out["step_time_total_s"] = round(self.step_time_total, 6)
            out["step_time_max_s"] = round(self.step_time_max, 6)
            if self.steps:
                out["step_time_mean_s"] = round(
                    self.step_time_total / max(1, self.steps - 1), 9
                )
        return out
