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
  the closures call the protocol hooks and drain the output queues
  directly, since the station base classes fix the plumbing between
  them (:mod:`repro.datalink.stations`);
* :class:`PoolOracle` answers an oracle-reading station's channel
  queries (oracle-mode flooding) from the engines' value-id pools in
  O(distinct values).

The kernels do not memoise transitions into tables: built per run,
tables were faster on some protocols, slower on others and moved no
committed workload (docs/PERFORMANCE.md §5).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional

from repro.ioa.actions import Direction

#: Kernel-level sentinel for "no value" (value ids are >= 0).
NO_VALUE = -1


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
    The ``accept_*`` closures call the ``on_send_msg``/``on_packet``
    hooks, which is all the fixed ``accept_*`` plumbing does.
    ``offer`` keeps an identity memo -- stations re-offer the *same*
    packet object across retransmissions, so the common case returns
    the cached value id without touching the intern table.
    ``commit_run(count)`` commits ``count`` transmissions at once; it
    is ``None`` unless a commit provably leaves the protocol state
    alone (stock ``commit_packet`` and the base no-op
    ``on_packet_sent``).

    ``offer`` and ``commit`` are additionally *specialised* when the
    station keeps the base-class ``offer_packet``/``commit_packet``
    (checked by ``is``-identity): the base bodies are one or two
    attribute operations, so the closure performs them directly on the
    station instead of paying a method call to reach them.  An override
    (the Go-Back-N and window senders) is called as is.
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
        on_send_msg = station.on_send_msg
        on_packet = station.on_packet

        def accept_message(mvid: int) -> None:
            on_send_msg(vals[mvid])

        def accept_packet(vid: int) -> None:
            on_packet(vals[vid])

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

    ``accept`` calls the ``on_packet`` hook.  :attr:`queues` exposes
    the station's two output deques, so engines test pending output
    by deque truthiness without any call, and ``pop_delivery``/
    ``pop_control`` drain them directly -- performing the fixed
    ``pop_*`` plumbing's popleft-and-count inline.  Both pops keep
    single-entry identity memos: protocols emit runs of the same
    (interned) message body and ack object, so consecutive pops
    usually resolve their value id without an intern-table probe.

    A station that overrides ``silent_copies`` also gets
    ``silent(vid)`` and ``absorb(vid, count)``: its silent-receipt
    lookahead and bulk receipt in value-id space.  Both are ``None``
    otherwise.
    """

    __slots__ = (
        "station", "queues",
        "accept", "pop_delivery", "pop_control",
        "silent", "absorb",
    )

    def __init__(self, station, values: ValueIntern, oracle=None) -> None:
        from repro.datalink.stations import ReceiverStation

        self.station = station
        if station.uses_oracle:
            station.oracle = oracle
        cls = type(station)
        vals = values.values
        intern = values.intern
        on_packet = station.on_packet

        def accept(vid: int) -> None:
            on_packet(vals[vid])

        last_message = _SENTINEL
        last_message_vid = NO_VALUE
        last_packet = _SENTINEL
        last_packet_vid = NO_VALUE

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

        silent: Optional[Callable[[int], int]] = None
        absorb: Optional[Callable[[int, int], None]] = None
        if cls.silent_copies is not ReceiverStation.silent_copies:
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
