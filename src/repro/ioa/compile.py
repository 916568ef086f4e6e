"""Transition-table compilation for deterministic station automata.

The automata of this library are *deterministic* I/O automata
(:mod:`repro.ioa.automaton`): each ``(state, input)`` pair has exactly
one successor and each state enables at most one output.  The module
docstring there spells out why -- and that argument is exactly what
makes the classic explicit-state-tool trick sound here: the transition
relation can be *compiled* into integer tables

    ``(state_id, input_id) -> state_id``      (input transitions)
    ``state_id -> output_action_id``          (the enabled output)

discovered lazily from ``snapshot()``-reachable states through the same
interning discipline the exploration kernel uses
(:mod:`repro.ioa.exploration`).  Tables grow on demand, so protocols
with unbounded state (sequence numbers) compile just as well as finite
ones -- each newly reached state simply interns a new row.

Compilation is an optimisation, never a semantic fork:

* :class:`CompiledSender` / :class:`CompiledReceiver` are the
  table-backed kernels.  A cache miss restores the one representative
  snapshot for the state id onto a working automaton, runs the real
  transition once, interns the successor and fills the table slot; a
  hit is one list index.
* :class:`InterpretedSender` / :class:`InterpretedReceiver` are the
  transparent fallback: the same integer kernel interface, dispatching
  every call to a live station object.  Automata the compiler cannot
  close over -- overridden engine plumbing (Go-Back-N and window
  senders), oracle-consulting stations (oracle-mode flooding, whose
  transitions read channel state that is not part of
  ``protocol_state()``) -- run here, still inside the batched engines
  of :mod:`repro.core.trials`.
* :func:`compile_automaton` picks the right kernel;
  :class:`CompiledPair` packages a station pair so batched trial
  engines compile once and reuse the tables across every trial in a
  shard.

The gating predicates (:func:`stock_sender_plumbing` /
:func:`stock_receiver_plumbing`) are shared with the exploration
kernels: both need the same guarantee -- that the station class kept
the base-class engine dispatch, so transitions can talk to the
protocol hooks directly and states can be restored field-wise.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.ioa.actions import Direction

#: Kernel-level sentinel for "no value" (value ids are >= 0).
NO_VALUE = -1

_UNKNOWN = -1


def stock_sender_plumbing(cls: type) -> bool:
    """True when ``cls`` kept the base :class:`SenderStation` plumbing.

    The engine dispatch surface (``offer_packet``/``commit_packet``/
    ``accept_*``), the IOAutomaton adapters and the state-management
    trio must all be the base-class implementations; then transitions
    may talk to the protocol hooks directly and states restore
    field-wise.  Shared by the table compiler and the exploration
    kernels (same gating, one definition).
    """
    try:
        from repro.datalink.stations import SenderStation
    except ImportError:  # pragma: no cover - layering safety net
        return False
    return (
        issubclass(cls, SenderStation)
        and cls.handle_input is SenderStation.handle_input
        and cls.next_output is SenderStation.next_output
        and cls.perform_output is SenderStation.perform_output
        and cls.offer_packet is SenderStation.offer_packet
        and cls.commit_packet is SenderStation.commit_packet
        and cls.accept_message is SenderStation.accept_message
        and cls.accept_packet is SenderStation.accept_packet
        and cls.snapshot is SenderStation.snapshot
        and cls.restore is SenderStation.restore
        and cls.protocol_state is SenderStation.protocol_state
    )


def stock_receiver_plumbing(cls: type) -> bool:
    """True when ``cls`` kept the base :class:`ReceiverStation` plumbing.

    See :func:`stock_sender_plumbing`; the receiver surface adds the
    output-queue discipline (``pop_delivery``/``pop_control_packet``).
    """
    try:
        from repro.datalink.stations import ReceiverStation
    except ImportError:  # pragma: no cover - layering safety net
        return False
    return (
        issubclass(cls, ReceiverStation)
        and cls.handle_input is ReceiverStation.handle_input
        and cls.next_output is ReceiverStation.next_output
        and cls.perform_output is ReceiverStation.perform_output
        and cls.pop_delivery is ReceiverStation.pop_delivery
        and cls.pop_control_packet is ReceiverStation.pop_control_packet
        and cls.accept_packet is ReceiverStation.accept_packet
        and cls.snapshot is ReceiverStation.snapshot
        and cls.restore is ReceiverStation.restore
        and cls.protocol_state is ReceiverStation.protocol_state
    )


def table_compilable_sender(station) -> bool:
    """Whether a sender can run on dense tables.

    Beyond stock plumbing the station must not consult the channel
    oracle: an oracle read makes the transition a function of channel
    state, which is not part of the interned ``protocol_state()``.
    ``on_packet_sent`` overrides are fine -- they fire inside the
    commit transition and land in the successor state.
    """
    return not station.uses_oracle and stock_sender_plumbing(type(station))


def table_compilable_receiver(station) -> bool:
    """Whether a receiver can run on dense tables.

    The compiled receiver replays the output queues itself, so the
    queue hooks (``queue_delivery``/``queue_packet``/``on_delivered``/
    ``has_pending_output``) must also be the base implementations.
    """
    try:
        from repro.datalink.stations import ReceiverStation
    except ImportError:  # pragma: no cover - layering safety net
        return False
    cls = type(station)
    return (
        not station.uses_oracle
        and stock_receiver_plumbing(cls)
        and cls.queue_delivery is ReceiverStation.queue_delivery
        and cls.queue_packet is ReceiverStation.queue_packet
        and cls.on_delivered is ReceiverStation.on_delivered
        and cls.has_pending_output is ReceiverStation.has_pending_output
    )


class ValueIntern:
    """Bidirectional value <-> small-int table shared by a compiled pair.

    Packet values, message payloads and ack packets all intern into one
    id space; the identity memo resolves re-offered objects (stations
    re-offer the same Packet across retransmissions, flooding interns
    its acks) on an ``id()`` hash instead of the dataclass hash.
    ``_refs`` pins every memoised object so CPython cannot recycle an
    id that is still a key.
    """

    __slots__ = ("ids", "values", "_by_objid", "_refs")

    def __init__(self) -> None:
        self.ids: Dict[Hashable, int] = {}
        self.values: List[Hashable] = []
        self._by_objid: Dict[int, int] = {}
        self._refs: List[Hashable] = []

    def intern(self, value: Hashable) -> int:
        """The id for ``value``, minting one on first sight."""
        vid = self._by_objid.get(id(value))
        if vid is not None:
            return vid
        vid = self.ids.get(value)
        if vid is None:
            vid = len(self.values)
            self.ids[value] = vid
            self.values.append(value)
        self._by_objid[id(value)] = vid
        self._refs.append(value)
        return vid

    def __getitem__(self, vid: int) -> Hashable:
        return self.values[vid]

    def __len__(self) -> int:
        return len(self.values)


class PoolOracle:
    """:class:`~repro.channels.base.ChannelOracle` interface over the
    batched engines' integer pools.

    Oracle-consulting stations (oracle-mode flooding) cannot be table
    compiled, but their *oracle queries* are the dominant cost of the
    interpreted path: ``transit_count``/``count_matching`` on a real
    channel walk the whole in-transit bag, which grows without bound
    over a trickle-free probabilistic channel.  The integer pools keep
    a value-id multiset, so the same queries answer in O(distinct
    values) with identical results (the bag is a multiset; per-copy
    and per-value-times-multiplicity counting agree).
    """

    __slots__ = ("_values", "_pools")

    def __init__(self, values: ValueIntern, pools: Dict[Direction, "object"]):
        self._values = values
        self._pools = pools

    def transit_count(self, direction: Direction, packet) -> int:
        vid = self._values.intern(packet)
        return self._pools[direction].value_counts.get(vid, 0)

    def count_matching(
        self, direction: Direction, predicate: Callable[[Hashable], bool]
    ) -> int:
        values = self._values.values
        return sum(
            count
            for vid, count in self._pools[direction].value_counts.items()
            if count and predicate(values[vid])
        )

    def transit_size(self, direction: Direction) -> int:
        return self._pools[direction].size


class CompiledAutomaton:
    """Shared intern/table machinery of the compiled station kernels.

    Concrete kernels hold, per interned state id, one representative
    restorable state and dense integer rows (lists indexed by input
    value id, ``-1`` = not yet discovered).  Rows grow lazily with the
    input alphabet, and the state list grows lazily with reachability
    -- unbounded-state protocols just keep appending rows.
    """

    kind = "table"

    __slots__ = ("values", "state_ids", "misses", "hits")

    def __init__(self, values: ValueIntern) -> None:
        self.values = values
        self.state_ids: Dict[Hashable, int] = {}
        self.misses = 0
        self.hits = 0

    @property
    def state_count(self) -> int:
        """Interned states discovered so far."""
        return len(self.state_ids)

    @staticmethod
    def _set(row: List[int], vid: int, target: int) -> None:
        """Store ``row[vid] = target``, growing the dense row."""
        if vid >= len(row):
            row.extend([_UNKNOWN] * (vid + 1 - len(row)))
        row[vid] = target


class CompiledSender(CompiledAutomaton):
    """Table-backed sender kernel.

    States are interned by ``protocol_state()`` -- ``(current_packet,
    protocol_fields())`` under the stock-plumbing gate -- and the four
    transitions (message arrival, packet arrival, transmission commit,
    readiness) are memoised per state id.  The enabled output is read
    off the state key at intern time (stock senders offer exactly
    ``current_packet``), so ``state_id -> output_action_id`` is a plain
    list lookup.  ``packets_sent`` bookkeeping lives in the kernel (it
    never influences a transition; that is the ``protocol_state``
    contract) and is written back on :meth:`materialise`.
    """

    __slots__ = (
        "_proto", "_station", "_snaps",
        "msg_next", "rcv_next", "commit_next", "out_vid", "ready_bit",
        "initial", "cur", "packets_sent",
    )

    #: No bulk commit: a commit may move the table state.
    commit_run: Optional[Callable[[int], None]] = None

    def __init__(self, prototype, values: ValueIntern) -> None:
        super().__init__(values)
        self._proto = prototype
        self._station = prototype.clone()
        self._snaps: List[Tuple] = []
        self.msg_next: List[List[int]] = []
        self.rcv_next: List[List[int]] = []
        self.commit_next: List[int] = []
        self.out_vid: List[int] = []
        self.ready_bit: List[int] = []
        self.initial = self._intern_current()
        self.cur = self.initial
        self.packets_sent = 0

    def reset(self) -> None:
        """Back to the prototype's initial state; tables survive."""
        self.cur = self.initial
        self.packets_sent = 0

    def _intern_current(self) -> int:
        st = self._station
        packet = st.current_packet
        key = (packet, st.protocol_fields())
        sid = self.state_ids.get(key)
        if sid is None:
            sid = len(self._snaps)
            self.state_ids[key] = sid
            self._snaps.append(key)
            self.msg_next.append([])
            self.rcv_next.append([])
            self.commit_next.append(_UNKNOWN)
            self.out_vid.append(
                NO_VALUE if packet is None else self.values.intern(packet)
            )
            self.ready_bit.append(_UNKNOWN)
        return sid

    def _restore(self, sid: int) -> None:
        packet, fields = self._snaps[sid]
        st = self._station
        st.current_packet = packet
        st.set_protocol_fields(fields)

    # ------------------------------------------------------------------
    # miss resolution (the table slots the interface below finds empty)
    # ------------------------------------------------------------------
    def resolve_ready(self, sid: int) -> int:
        """Discover (and table) the readiness bit of state ``sid``."""
        self.misses += 1
        self._restore(sid)
        bit = 1 if self._station.ready_for_message() else 0
        self.ready_bit[sid] = bit
        return bit

    def resolve_msg(self, sid: int, mvid: int) -> int:
        """Discover the ``send_msg`` successor of ``(sid, mvid)``."""
        self.misses += 1
        self._restore(sid)
        self._station.on_send_msg(self.values.values[mvid])
        nxt = self._intern_current()
        self._set(self.msg_next[sid], mvid, nxt)
        return nxt

    def resolve_rcv(self, sid: int, vid: int) -> int:
        """Discover the ``receive_pkt^{r->t}`` successor of
        ``(sid, vid)``."""
        self.misses += 1
        self._restore(sid)
        self._station.on_packet(self.values.values[vid])
        nxt = self._intern_current()
        self._set(self.rcv_next[sid], vid, nxt)
        return nxt

    def resolve_commit(self, sid: int) -> int:
        """Discover the transmission-commit successor of ``sid``."""
        self.misses += 1
        self._restore(sid)
        st = self._station
        st.packets_sent = 0
        st.commit_packet(st.current_packet)
        nxt = self._intern_current()
        self.commit_next[sid] = nxt
        return nxt

    # ------------------------------------------------------------------
    # the kernel interface
    # ------------------------------------------------------------------
    def ready(self) -> bool:
        """``ready_for_message()`` of the current state."""
        bit = self.ready_bit[self.cur]
        if bit == _UNKNOWN:
            bit = self.resolve_ready(self.cur)
        else:
            self.hits += 1
        return bit == 1

    def accept_message(self, mvid: int) -> None:
        """``send_msg`` input transition."""
        row = self.msg_next[self.cur]
        nxt = row[mvid] if mvid < len(row) else _UNKNOWN
        if nxt == _UNKNOWN:
            nxt = self.resolve_msg(self.cur, mvid)
        else:
            self.hits += 1
        self.cur = nxt

    def accept_packet(self, vid: int) -> None:
        """``receive_pkt^{r->t}`` input transition."""
        row = self.rcv_next[self.cur]
        nxt = row[vid] if vid < len(row) else _UNKNOWN
        if nxt == _UNKNOWN:
            nxt = self.resolve_rcv(self.cur, vid)
        else:
            self.hits += 1
        self.cur = nxt

    def offer(self) -> int:
        """Value id of the packet the station would transmit, or
        :data:`NO_VALUE`."""
        return self.out_vid[self.cur]

    def commit(self) -> None:
        """One transmission of the offered packet was committed."""
        nxt = self.commit_next[self.cur]
        if nxt == _UNKNOWN:
            nxt = self.resolve_commit(self.cur)
        else:
            self.hits += 1
        self.cur = nxt
        self.packets_sent += 1

    def protocol_state(self) -> Tuple:
        """Same view as ``SenderStation.protocol_state()``."""
        return self._snaps[self.cur]

    def materialise(self):
        """A real station object in the kernel's current state."""
        station = self._proto.clone()
        packet, fields = self._snaps[self.cur]
        station.current_packet = packet
        station.set_protocol_fields(fields)
        station.packets_sent = self.packets_sent
        return station

class CompiledReceiver(CompiledAutomaton):
    """Table-backed receiver kernel.

    States are interned by ``protocol_fields()`` alone: under the
    table gate the output queues are write-only for ``on_packet`` and
    drained by base-class FIFO pops with no hooks, so the kernel keeps
    the queues itself (as value-id deques) and the packet transition
    memoises ``(state_id, input_id) -> (state_id, queued deliveries,
    queued control packets)``.
    """

    __slots__ = (
        "_proto", "_station", "_fields",
        "rcv_next", "rcv_out",
        "initial", "cur", "deliveries", "outgoing", "messages_delivered",
    )

    #: No silent-receipt lookahead on the tables.
    silent: Optional[Callable[[int], int]] = None
    absorb: Optional[Callable[[int, int], None]] = None

    def __init__(self, prototype, values: ValueIntern) -> None:
        super().__init__(values)
        self._proto = prototype
        self._station = prototype.clone()
        self._fields: List[Tuple] = []
        self.rcv_next: List[List[int]] = []
        self.rcv_out: List[List[Optional[Tuple]]] = []
        self.initial = self._intern(prototype.protocol_fields())
        self.cur = self.initial
        self.deliveries: deque = deque()
        self.outgoing: deque = deque()
        self.messages_delivered = 0

    def reset(self) -> None:
        """Back to the prototype's initial state; tables survive."""
        self.cur = self.initial
        self.deliveries.clear()
        self.outgoing.clear()
        self.messages_delivered = 0

    def _intern(self, fields: Tuple) -> int:
        fid = self.state_ids.get(fields)
        if fid is None:
            fid = len(self._fields)
            self.state_ids[fields] = fid
            self._fields.append(fields)
            self.rcv_next.append([])
            self.rcv_out.append([])
        return fid

    # ------------------------------------------------------------------
    # miss resolution (see CompiledSender.resolve_*)
    # ------------------------------------------------------------------
    def resolve_accept(self, sid: int, vid: int) -> Tuple[int, Tuple]:
        """Discover the packet macro-transition of ``(sid, vid)``:
        returns ``(next state id, (delivery vids, control vids))``."""
        self.misses += 1
        st = self._station
        st.restore(((), (), 0, self._fields[sid]))
        st.on_packet(self.values.values[vid])
        nxt = self._intern(st.protocol_fields())
        intern = self.values.intern
        ops = (
            tuple(intern(m) for m in st._deliveries),
            tuple(intern(p) for p in st._outgoing),
        )
        self._set(self.rcv_next[sid], vid, nxt)
        out_row = self.rcv_out[sid]
        if vid >= len(out_row):
            out_row.extend([None] * (vid + 1 - len(out_row)))
        out_row[vid] = ops
        return nxt, ops

    # ------------------------------------------------------------------
    # the kernel interface
    # ------------------------------------------------------------------
    def accept(self, vid: int) -> None:
        """``receive_pkt^{t->r}`` input transition: update fields and
        append whatever the protocol queued."""
        cur = self.cur
        row = self.rcv_next[cur]
        nxt = row[vid] if vid < len(row) else _UNKNOWN
        if nxt == _UNKNOWN:
            nxt, ops = self.resolve_accept(cur, vid)
        else:
            self.hits += 1
            ops = self.rcv_out[cur][vid]
        self.cur = nxt
        if ops[0]:
            self.deliveries.extend(ops[0])
        if ops[1]:
            self.outgoing.extend(ops[1])

    def has_pending(self) -> bool:
        """Any delivery or control packet pending?"""
        return bool(self.deliveries or self.outgoing)

    @property
    def queues(self) -> Optional[Tuple]:
        """The live ``(deliveries, outgoing)`` deques, for engines that
        test emptiness directly instead of calling :meth:`has_pending`
        per event.  The deques are stable objects (cleared in place on
        :meth:`reset`), so a caller may cache them for a trial."""
        return (self.deliveries, self.outgoing)

    def pop_delivery(self) -> int:
        """Next pending delivery's value id, or :data:`NO_VALUE`."""
        if not self.deliveries:
            return NO_VALUE
        self.messages_delivered += 1
        return self.deliveries.popleft()

    def pop_control(self) -> int:
        """Next pending control packet's value id."""
        return self.outgoing.popleft()

    def protocol_state(self) -> Tuple:
        """Same view as ``ReceiverStation.protocol_state()``."""
        values = self.values.values
        return (
            tuple(values[v] for v in self.deliveries),
            tuple(values[v] for v in self.outgoing),
            self._fields[self.cur],
        )

    def materialise(self):
        """A real station object in the kernel's current state."""
        station = self._proto.clone()
        values = self.values.values
        station.restore(
            (
                tuple(values[v] for v in self.deliveries),
                tuple(values[v] for v in self.outgoing),
                self.messages_delivered,
                self._fields[self.cur],
            )
        )
        return station

class InterpretedSender:
    """Fallback sender kernel: same interface, live station behind it.

    Used for automata the compiler cannot close over -- overridden
    engine plumbing or oracle reads.  ``oracle`` (usually a
    :class:`PoolOracle`) is attached exactly the way
    ``DataLinkSystem._attach_oracle`` would attach the real one.

    The kernel surface (``ready``/``offer``/``commit``/``accept_*``)
    is built as bound closures rather than methods: the batched
    engines call these millions of times, and a closure with the
    station's methods pre-bound removes a dispatch level per call.
    ``offer`` keeps an identity memo -- stations re-offer the *same*
    packet object across retransmissions, so the common case returns
    the cached value id without touching the intern table.
    ``commit_run(count)`` commits ``count`` transmissions at once; it
    is ``None`` unless a commit provably leaves the protocol state
    alone (stock ``commit_packet`` and the base no-op
    ``on_packet_sent``).

    Each closure is additionally *specialised* when the station keeps
    the base-class version of the plumbing method behind it (checked by
    ``is``-identity, like the table gate): the base bodies are one or
    two attribute operations, so the closure performs them directly on
    the station instead of paying a method call to reach them.  An
    oracle-reading station with stock plumbing -- the flooding
    protocol -- gets every specialisation even though it can never be
    table-compiled.
    """

    kind = "interpreted"

    __slots__ = (
        "station", "values",
        "ready", "accept_message", "accept_packet", "offer", "commit",
        "commit_run",
    )

    def __init__(self, station, values: ValueIntern, oracle=None) -> None:
        from repro.datalink.stations import SenderStation

        self.station = station
        self.values = values
        if station.uses_oracle:
            station.oracle = oracle
        self.ready = station.ready_for_message
        cls = type(station)
        vals = values.values
        intern = values.intern

        if cls.accept_message is SenderStation.accept_message:
            on_send_msg = station.on_send_msg

            def accept_message(mvid: int) -> None:
                on_send_msg(vals[mvid])
        else:
            accept_msg = station.accept_message

            def accept_message(mvid: int) -> None:
                accept_msg(vals[mvid])

        if cls.accept_packet is SenderStation.accept_packet:
            on_packet = station.on_packet

            def accept_packet(vid: int) -> None:
                on_packet(vals[vid])
        else:
            accept_pkt = station.accept_packet

            def accept_packet(vid: int) -> None:
                accept_pkt(vals[vid])

        offered = _SENTINEL
        offered_vid = NO_VALUE

        if cls.offer_packet is SenderStation.offer_packet:
            # Base body: ``return self.current_packet``.
            def offer() -> int:
                nonlocal offered, offered_vid
                packet = station.current_packet
                if packet is None:
                    return NO_VALUE
                if packet is not offered:
                    offered = packet
                    offered_vid = intern(packet)
                return offered_vid
        else:
            offer_packet = station.offer_packet

            def offer() -> int:
                nonlocal offered, offered_vid
                packet = offer_packet()
                if packet is None:
                    return NO_VALUE
                if packet is not offered:
                    offered = packet
                    offered_vid = intern(packet)
                return offered_vid

        commit_run: Optional[Callable[[int], None]] = None
        if cls.commit_packet is SenderStation.commit_packet:
            # Base body: count the transmission, then the
            # on_packet_sent hook -- elided entirely when it is the
            # base no-op.
            if cls.on_packet_sent is SenderStation.on_packet_sent:
                def commit() -> None:
                    station.packets_sent += 1

                def count_commits(count: int) -> None:
                    station.packets_sent += count

                commit_run = count_commits
            else:
                on_packet_sent = station.on_packet_sent

                def commit() -> None:
                    station.packets_sent += 1
                    on_packet_sent(offered)
        else:
            commit_packet = station.commit_packet

            def commit() -> None:
                commit_packet(offered)

        self.accept_message = accept_message
        self.accept_packet = accept_packet
        self.offer = offer
        self.commit = commit
        self.commit_run = commit_run

    @property
    def packets_sent(self) -> int:
        return self.station.packets_sent

    def protocol_state(self) -> Tuple:
        return self.station.protocol_state()

    def materialise(self):
        return self.station


#: Never-equal placeholder for the interpreted kernels' identity memos
#: (``None`` is a legitimate message body / packet value).
_SENTINEL = object()


class InterpretedReceiver:
    """Fallback receiver kernel over a live station; see
    :class:`InterpretedSender` for the closure-based construction.

    ``pop_delivery``/``pop_control`` keep single-entry identity memos:
    protocols emit runs of the same (interned) message body and ack
    object, so consecutive pops usually resolve their value id without
    an intern-table probe.

    When the station keeps the base-class queue plumbing
    (``has_pending_output``/``pop_delivery``/``pop_control_packet``,
    ``is``-checked), :attr:`queues` exposes the station's real deques
    so engines can test emptiness without any call, and the pop
    closures drain those deques directly -- performing the base
    bodies' popleft-and-count inline.

    With that plumbing and a stock ``accept_packet``, a station that
    overrides ``silent_copies`` also gets ``silent(vid)`` and
    ``absorb(vid, count)``: its silent-receipt lookahead and bulk
    receipt in value-id space.  Both are ``None`` otherwise.
    """

    kind = "interpreted"

    __slots__ = (
        "station", "values", "queues",
        "accept", "has_pending", "pop_delivery", "pop_control",
        "silent", "absorb",
    )

    def __init__(self, station, values: ValueIntern, oracle=None) -> None:
        from repro.datalink.stations import NO_OUTPUT, ReceiverStation

        self.station = station
        self.values = values
        if station.uses_oracle:
            station.oracle = oracle
        self.has_pending = station.has_pending_output
        cls = type(station)
        vals = values.values
        intern = values.intern

        if cls.accept_packet is ReceiverStation.accept_packet:
            on_packet = station.on_packet

            def accept(vid: int) -> None:
                on_packet(vals[vid])
        else:
            accept_pkt = station.accept_packet

            def accept(vid: int) -> None:
                accept_pkt(vals[vid])

        last_message = _SENTINEL
        last_message_vid = NO_VALUE
        last_packet = _SENTINEL
        last_packet_vid = NO_VALUE

        stock_queues = (
            cls.has_pending_output is ReceiverStation.has_pending_output
            and cls.pop_delivery is ReceiverStation.pop_delivery
            and cls.pop_control_packet is ReceiverStation.pop_control_packet
        )
        if stock_queues:
            deliveries = station._deliveries
            outgoing = station._outgoing
            self.queues = (deliveries, outgoing)
            hook = (
                None
                if cls.on_delivered is ReceiverStation.on_delivered
                else station.on_delivered
            )

            def pop_delivery() -> int:
                # Base body inlined: popleft, count, on_delivered hook.
                nonlocal last_message, last_message_vid
                if not deliveries:
                    return NO_VALUE
                message = deliveries.popleft()
                station.messages_delivered += 1
                if hook is not None:
                    hook(message)
                if message is not last_message:
                    last_message = message
                    last_message_vid = intern(message)
                return last_message_vid

            def pop_control() -> int:
                nonlocal last_packet, last_packet_vid
                packet = outgoing.popleft() if outgoing else None
                if packet is not last_packet:
                    last_packet = packet
                    last_packet_vid = intern(packet)
                return last_packet_vid
        else:
            self.queues = None
            pop_del = station.pop_delivery

            def pop_delivery() -> int:
                nonlocal last_message, last_message_vid
                message = pop_del()
                if message is NO_OUTPUT:
                    return NO_VALUE
                if message is not last_message:
                    last_message = message
                    last_message_vid = intern(message)
                return last_message_vid

            pop_ctl = station.pop_control_packet

            def pop_control() -> int:
                nonlocal last_packet, last_packet_vid
                packet = pop_ctl()
                if packet is not last_packet:
                    last_packet = packet
                    last_packet_vid = intern(packet)
                return last_packet_vid

        silent: Optional[Callable[[int], int]] = None
        absorb: Optional[Callable[[int, int], None]] = None
        if (
            stock_queues
            and cls.accept_packet is ReceiverStation.accept_packet
            and cls.silent_copies is not ReceiverStation.silent_copies
        ):
            silent_copies = station.silent_copies
            absorb_copies = station.absorb_copies

            def silent_vid(vid: int) -> int:
                return silent_copies(vals[vid])

            def absorb_vid(vid: int, count: int) -> None:
                absorb_copies(vals[vid], count)

            silent, absorb = silent_vid, absorb_vid

        self.accept = accept
        self.pop_delivery = pop_delivery
        self.pop_control = pop_control
        self.silent = silent
        self.absorb = absorb

    @property
    def messages_delivered(self) -> int:
        return self.station.messages_delivered

    def protocol_state(self) -> Tuple:
        return self.station.protocol_state()

    def materialise(self):
        return self.station


def compile_automaton(station, values: ValueIntern, oracle=None):
    """The best kernel for one station: table-backed when the compiler
    can close over the automaton, interpreted dispatch otherwise.

    Senders and receivers are distinguished by their base class; any
    other :class:`~repro.ioa.automaton.IOAutomaton` is rejected (the
    batched engines speak the station dispatch interface).
    """
    from repro.datalink.stations import ReceiverStation, SenderStation

    if isinstance(station, SenderStation):
        if table_compilable_sender(station):
            return CompiledSender(station, values)
        return InterpretedSender(station, values, oracle)
    if isinstance(station, ReceiverStation):
        if table_compilable_receiver(station):
            return CompiledReceiver(station, values)
        return InterpretedReceiver(station, values, oracle)
    raise TypeError(
        f"cannot compile {type(station).__name__}: not a station automaton"
    )


class CompiledPair:
    """A station pair compiled once, re-instantiated per trial.

    Table kernels are built a single time and *reset* between trials
    (the tables -- the expensive part -- persist and keep filling in
    across the whole shard); interpreted kernels wrap a fresh station
    pair per trial.  ``kernels(oracle)`` hands back a ready
    (sender, receiver) kernel pair.
    """

    def __init__(
        self,
        pair_factory: Callable[[], Tuple],
        values: Optional[ValueIntern] = None,
    ) -> None:
        self.pair_factory = pair_factory
        self.values = values if values is not None else ValueIntern()
        sender, receiver = pair_factory()
        self.sender_table = table_compilable_sender(sender)
        self.receiver_table = table_compilable_receiver(receiver)
        self.uses_oracle = sender.uses_oracle or receiver.uses_oracle
        self._sender_kernel = (
            CompiledSender(sender, self.values) if self.sender_table else None
        )
        self._receiver_kernel = (
            CompiledReceiver(receiver, self.values)
            if self.receiver_table
            else None
        )

    def kernels(self, oracle=None) -> Tuple:
        """A (sender kernel, receiver kernel) pair for one trial."""
        if self.sender_table and self.receiver_table:
            self._sender_kernel.reset()
            self._receiver_kernel.reset()
            return self._sender_kernel, self._receiver_kernel
        sender, receiver = self.pair_factory()
        if self.sender_table:
            self._sender_kernel.reset()
            skernel = self._sender_kernel
        else:
            skernel = InterpretedSender(sender, self.values, oracle)
        if self.receiver_table:
            self._receiver_kernel.reset()
            rkernel = self._receiver_kernel
        else:
            rkernel = InterpretedReceiver(receiver, self.values, oracle)
        return skernel, rkernel
