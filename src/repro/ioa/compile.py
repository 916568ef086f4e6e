"""Integer kernels over live station automata for the batch trial engines.

The batch engines of :mod:`repro.core.trials` keep channels as
value-id multisets and the Definition-2 counters as plain integers.
This module gives them a station pair in the same currency:

* :class:`ValueIntern` maps packet values, message payloads and ack
  packets to small integers, one id space per run;
* :class:`InterpretedSender` / :class:`InterpretedReceiver` expose a
  live station through an integer interface (``ready``/``offer``/
  ``commit``/``accept_*``/``pop_*``).  Every call runs the station's
  own transition, so a kernel is the automaton, not a model of it;
  the closures only save dispatch where the station keeps the
  base-class plumbing;
* :class:`PoolOracle` answers an oracle-reading station's channel
  queries (oracle-mode flooding) from the engines' value-id pools in
  O(distinct values).

The kernels do not memoise transitions into tables: built per run,
tables were faster on some protocols, slower on others and moved no
committed workload (docs/PERFORMANCE.md §5).

The stock-plumbing predicates (:func:`stock_sender_plumbing` /
:func:`stock_receiver_plumbing`) gate the exploration kernels' direct
hook fast paths (:mod:`repro.ioa.exploration`).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional

from repro.ioa.actions import Direction

#: Kernel-level sentinel for "no value" (value ids are >= 0).
NO_VALUE = -1


def stock_sender_plumbing(cls: type) -> bool:
    """True when ``cls`` kept the base :class:`SenderStation` plumbing.

    The engine dispatch surface (``offer_packet``/``commit_packet``/
    ``accept_*``), the IOAutomaton adapters and the state-management
    trio must all be the base-class implementations; then transitions
    may talk to the protocol hooks directly and states restore
    field-wise.  The exploration kernels take their direct-hook fast
    path on this gate.
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


class ValueIntern:
    """Bidirectional value <-> small-int table shared by a kernel pair.

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

    Oracle queries dominate an oracle-consulting station's run
    (oracle-mode flooding): ``transit_count``/``count_matching`` on a
    real channel walk the whole in-transit bag, which grows without
    bound over a trickle-free probabilistic channel.  The integer
    pools keep a value-id multiset, so the same queries answer in
    O(distinct values) with identical results (the bag is a multiset;
    per-copy and per-value-times-multiplicity counting agree).
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


class InterpretedSender:
    """Sender kernel: the integer interface over a live station.

    ``oracle`` (usually a :class:`PoolOracle`) is attached exactly the
    way ``DataLinkSystem._attach_oracle`` would attach the real one.

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
    ``is``-identity): the base bodies are one or two attribute
    operations, so the closure performs them directly on the station
    instead of paying a method call to reach them.  Overridden
    plumbing (the Go-Back-N and window senders) is called as is.
    """

    __slots__ = (
        "station",
        "ready", "accept_message", "accept_packet", "offer", "commit",
        "commit_run",
    )

    def __init__(self, station, values: ValueIntern, oracle=None) -> None:
        from repro.datalink.stations import SenderStation

        self.station = station
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


#: Never-equal placeholder for the interpreted kernels' identity memos
#: (``None`` is a legitimate message body / packet value).
_SENTINEL = object()


class InterpretedReceiver:
    """Receiver kernel over a live station; see
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

    __slots__ = (
        "station", "queues",
        "accept", "has_pending", "pop_delivery", "pop_control",
        "silent", "absorb",
    )

    def __init__(self, station, values: ValueIntern, oracle=None) -> None:
        from repro.datalink.stations import NO_OUTPUT, ReceiverStation

        self.station = station
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
