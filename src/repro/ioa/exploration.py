"""Reachable-state enumeration for station automata.

Theorem 2.1 of the paper states that any data link protocol
``A = (A^t, A^r)`` is ``k_t * k_r``-bounded, where ``k_t`` and ``k_r``
are the numbers of states of the two automata.  To check the theorem
against concrete protocols we need (an upper bound on) those state
counts.  This module computes them by breadth-first exploration of the
composed system under a *channel set-abstraction*:

    the contents of each physical channel are abstracted to the **set**
    of packet values that have ever been sent on it and may therefore
    be in transit; delivering a value does not remove it from the set.

The abstraction is a sound over-approximation of what an adversarial
non-FIFO channel can do to the stations: whenever a value has crossed a
channel once, the adversary can, in some real execution, arrange for
arbitrarily many copies of it to be in transit (by repeatedly polling
the sending station while withholding deliveries) and hence can deliver
it at any later point.  Exploring under the abstraction therefore
visits a superset of the station states reachable in real executions,
so the reported ``k_t * k_r`` product is an upper bound on the true
product -- exactly the direction needed to *verify* the Theorem 2.1
inequality ``boundness <= k_t * k_r``.

The exploration is exact (not an abstraction) in one common special
case: protocols whose stations ignore duplicate receipts, such as the
alternating-bit protocol, behave identically under multisets and sets.

Interned, packed search
-----------------------

The frontier can explode combinatorially (the FIFO/CFSM reachability
literature -- Pachl; Bollig-Finkel-Suresh -- is a catalogue of exactly
this blow-up), so the inner loop is engineered to touch nothing heavier
than small integers:

* every station state is **interned** the first time it is seen: its
  ``protocol_state()`` key maps to a small int, alongside one
  representative ``snapshot()`` used to restore the working automaton;
* every packet value and every channel value-*set* is interned the same
  way, with set-extension (``set | {value}``) memoised on
  ``(set_id, value_id)`` pairs so a set is hashed at most once;
* the **transition function itself is memoised** on interned ids:
  delivering value ``v`` to a receiver in state ``r`` always produces
  the same successor (the automata are deterministic and two states
  with equal protocol keys behave identically forever), so each
  distinct ``(state, input)`` pair runs the real automaton exactly
  once;
* a configuration ``(sender, receiver, t2r set, r2t set, injected)``
  is **packed into a single integer** -- five 24-bit id fields -- so
  the visited set is a set of plain ints and duplicate successors are
  rejected on one int hash;
* successor generation is **delta-memoised**: because a transition
  replaces whole fields, the packed difference ``successor - config``
  depends only on the fields the transition reads.  One dict lookup per
  move class (environment injection, sender output, deliveries to the
  receiver, deliveries to the sender) yields a tuple of ready-made
  integer deltas, and each successor costs one addition plus one set
  membership test.

``ExplorationResult.perf`` reports the interning/memo counters and the
configurations-per-second throughput.  ``memo_hits``/``memo_misses``
count the underlying per-transition memo; delta-memo hits bypass even
that lookup, so hit counts are lower than the number of generated
successors.

This module holds the interned search and the result types.  The BFS
itself -- one level-synchronous driver shared with the checker, with
sharding and checkpoint/resume -- lives in
:mod:`repro.ioa.exploration_parallel`; :func:`explore_station_states`
runs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.ioa.actions import ActionType, Direction, receive_pkt, send_msg
from repro.ioa.automaton import IOAutomaton

# Packed-configuration layout: fields of _FIELD_BITS each -- sender
# id, receiver id, t->r set id, r->t set id, injected count, and (only
# when a checked property reads it) a saturating delivered count.
# 24 bits per field caps every intern table at ~16.7M entries, far
# beyond any exploration budget this library runs, and keeps a packed
# configuration within a few big-int limbs.
_FIELD_BITS = 24
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_S_RID = _FIELD_BITS
_S_T2R = 2 * _FIELD_BITS
_S_R2T = 3 * _FIELD_BITS
_S_INJ = 4 * _FIELD_BITS
_S_DEL = 5 * _FIELD_BITS
_ONE_INJ = 1 << _S_INJ
_PAIR_MASK = (1 << (2 * _FIELD_BITS)) - 1

_MISSING = object()


class ExplorationCapacityError(RuntimeError):
    """An intern table outgrew the packed-field id capacity.

    The error carries how far the search got before overflowing, so
    callers can report partial progress instead of discarding it:

    Attributes:
        partial: a truncated :class:`ExplorationResult` covering the
            work completed before the overflow (exploration only;
            ``None`` for the checker, or when the shards could not
            assemble one).
        levels_completed: BFS levels fully expanded before the
            overflow.
        configurations_seen: configurations visited before the
            overflow, counting the one whose expansion overflowed.
    """

    def __init__(
        self,
        message: str = "",
        *,
        partial: Optional["ExplorationResult"] = None,
        levels_completed: Optional[int] = None,
        configurations_seen: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.partial = partial
        self.levels_completed = levels_completed
        self.configurations_seen = configurations_seen


@dataclass
class ExplorationResult:
    """Outcome of :func:`explore_station_states`.

    Attributes:
        sender_states: distinct sender snapshots visited (``>= k_t``
            restricted to the explored region; an over-approximation of
            the reachable count under real channels).
        receiver_states: distinct receiver snapshots visited.
        pair_count: number of distinct (sender, receiver) state pairs.
        configurations: number of abstract configurations visited.
        truncated: True when the exploration hit ``max_configurations``
            before exhausting the abstract state space.
        packet_values: distinct packet values observed per direction.
        perf: interning/memoisation counters and throughput for the
            run.  ``configs_per_sec`` is ``0.0`` only when zero
            configurations were visited; a measurable run whose elapsed
            time is below the clock resolution reports ``None``
            (unmeasurable) instead of a poisoned ``0.0``.
    """

    sender_states: Set[Hashable] = field(default_factory=set)
    receiver_states: Set[Hashable] = field(default_factory=set)
    pair_count: int = 0
    configurations: int = 0
    truncated: bool = False
    packet_values: dict = field(default_factory=dict)
    perf: Dict[str, float] = field(default_factory=dict)

    @property
    def k_t(self) -> int:
        """Number of distinct sender states visited."""
        return len(self.sender_states)

    @property
    def k_r(self) -> int:
        """Number of distinct receiver states visited."""
        return len(self.receiver_states)

    @property
    def state_product(self) -> int:
        """The ``k_t * k_r`` bound of Theorem 2.1."""
        return self.k_t * self.k_r


def configs_per_sec(configurations: int, elapsed: float) -> Optional[float]:
    """Throughput for the perf report.

    ``0.0`` only when truly zero work was done; ``None`` when work was
    done but the elapsed time is below the clock's resolution (a
    sub-resolution ``elapsed`` must not collapse a real rate to 0.0 --
    that poisons benchmark JSON).
    """
    if configurations == 0:
        return 0.0
    if elapsed <= 0:
        return None
    return round(configurations / elapsed, 1)


class _InternedSearch:
    """All interning tables and memoised transitions of one exploration.

    Station states are interned by their ``protocol_state()`` key: two
    snapshots with equal keys behave identically forever (that is the
    key's contract, and what the Theorem 2.1 counting relies on), so
    one representative snapshot per key suffices to generate successors
    and every transition needs to run on the real automaton only once
    per distinct ``(state id, input id)`` pair.
    """

    __slots__ = (
        "sender", "receiver", "alphabet",
        "sender_fast", "receiver_fast",
        "sender_ids", "sender_snaps", "sender_keys",
        "receiver_ids", "receiver_snaps", "receiver_keys",
        "value_ids", "values", "value_id_by_objid", "_value_refs",
        "set_ids", "set_members", "set_extend",
        "ready_memo", "msg_memo", "out_memo", "sender_rcv_memo",
        "receiver_rcv_memo",
        "memo_hits", "memo_misses",
    )

    def __init__(
        self,
        sender: IOAutomaton,
        receiver: IOAutomaton,
        alphabet: List[Hashable],
    ) -> None:
        self.sender = sender.clone()
        self.receiver = receiver.clone()
        self.alphabet = alphabet
        # Direct-hook fast path (same gating idea as the engine's
        # COUNTS-mode dispatch): when a station class keeps the base
        # SenderStation/ReceiverStation plumbing, transitions talk to
        # the protocol hooks (`on_send_msg`, `on_packet`, the output
        # queues) directly -- no Action objects, and restores assign
        # `protocol_fields` instead of rebuilding full snapshots.
        # Any override of the plumbing falls back to the faithful path.
        # The predicates are shared with the table compiler
        # (repro.ioa.compile) -- one definition of "stock plumbing" for
        # every kernel that relies on it.
        from repro.ioa.compile import (
            stock_receiver_plumbing,
            stock_sender_plumbing,
        )

        self.sender_fast = stock_sender_plumbing(type(self.sender))
        self.receiver_fast = stock_receiver_plumbing(type(self.receiver))
        # state id -> representative snapshot / protocol key
        self.sender_ids: Dict[Hashable, int] = {}
        self.sender_snaps: List[Hashable] = []
        self.sender_keys: List[Hashable] = []
        self.receiver_ids: Dict[Hashable, int] = {}
        self.receiver_snaps: List[Hashable] = []
        self.receiver_keys: List[Hashable] = []
        # packet values and value sets
        self.value_ids: Dict[Hashable, int] = {}
        self.values: List[Hashable] = []
        # Identity shortcut: protocols that intern their packet objects
        # (e.g. flooding acks) resolve to a value id on an `id()` hash
        # instead of the dataclass hash.  `_value_refs` pins every
        # memoised object so CPython cannot recycle its id.
        self.value_id_by_objid: Dict[int, int] = {}
        self._value_refs: List[Hashable] = []
        self.set_ids: Dict[Tuple[int, ...], int] = {(): 0}
        self.set_members: List[Tuple[int, ...]] = [()]
        self.set_extend: Dict[Tuple[int, int], int] = {}
        # transition memos
        self.ready_memo: Dict[int, bool] = {}
        self.msg_memo: Dict[Tuple[int, int], int] = {}
        self.out_memo: Dict[int, Optional[Tuple[int, int]]] = {}
        self.sender_rcv_memo: Dict[Tuple[int, int], int] = {}
        self.receiver_rcv_memo: Dict[
            Tuple[int, int], Tuple[int, Tuple[int, ...], int]
        ] = {}
        self.memo_hits = 0
        self.memo_misses = 0

    # -- interning ------------------------------------------------------
    def _guard(self, next_id: int) -> int:
        if next_id > _FIELD_MASK:
            raise ExplorationCapacityError(
                f"intern table outgrew the {_FIELD_BITS}-bit packed id "
                f"capacity ({next_id} ids)"
            )
        return next_id

    def intern_sender(self, automaton: IOAutomaton) -> int:
        key = automaton.protocol_state()
        sid = self.sender_ids.get(key)
        if sid is None:
            sid = self._guard(len(self.sender_keys))
            self.sender_ids[key] = sid
            self.sender_keys.append(key)
            # In fast mode the protocol-state key itself restores the
            # station (``(current_packet, fields)``), so no snapshot
            # is taken.
            self.sender_snaps.append(
                None if self.sender_fast else automaton.snapshot()
            )
            self.on_new_sender(sid)
        return sid

    def _intern_sender_key(self, key: Hashable) -> int:
        """Fast-mode interning of an already-built protocol-state key."""
        sid = self.sender_ids.get(key)
        if sid is None:
            sid = self._guard(len(self.sender_keys))
            self.sender_ids[key] = sid
            self.sender_keys.append(key)
            self.sender_snaps.append(None)
            self.on_new_sender(sid)
        return sid

    def intern_receiver(self, automaton: IOAutomaton) -> int:
        key = automaton.protocol_state()
        rid = self.receiver_ids.get(key)
        if rid is None:
            rid = self._guard(len(self.receiver_keys))
            self.receiver_ids[key] = rid
            self.receiver_keys.append(key)
            self.receiver_snaps.append(
                None if self.receiver_fast else automaton.snapshot()
            )
            self.on_new_receiver(rid)
        return rid

    def _intern_receiver_key(self, key: Hashable) -> int:
        rid = self.receiver_ids.get(key)
        if rid is None:
            rid = self._guard(len(self.receiver_keys))
            self.receiver_ids[key] = rid
            self.receiver_keys.append(key)
            self.receiver_snaps.append(None)
            self.on_new_receiver(rid)
        return rid

    def _load_sender(self, sid: int) -> IOAutomaton:
        """Put the working sender into interned state ``sid``."""
        sender = self.sender
        if self.sender_fast:
            # The key is (current_packet, protocol_fields); bookkeeping
            # counters (packets_sent) are excluded from protocol_state
            # by contract and cannot influence behaviour.
            current_packet, fields = self.sender_keys[sid]
            sender.current_packet = current_packet
            sender.set_protocol_fields(fields)
        else:
            sender.restore(self.sender_snaps[sid])
        return sender

    def intern_value(self, value: Hashable) -> int:
        vid = self.value_ids.get(value)
        if vid is None:
            vid = self._guard(len(self.values))
            self.value_ids[value] = vid
            self.values.append(value)
            self.on_new_value(vid)
        return vid

    def extend_set(self, set_id: int, value_id: int) -> int:
        """Id of ``set | {value}``, memoised on the id pair."""
        new_id = self.set_extend.get((set_id, value_id))
        if new_id is not None:
            return new_id
        members = self.set_members[set_id]
        if value_id in members:
            new_id = set_id
        else:
            extended = tuple(sorted(members + (value_id,)))
            new_id = self.set_ids.get(extended)
            if new_id is None:
                new_id = self._guard(len(self.set_members))
                self.set_ids[extended] = new_id
                self.set_members.append(extended)
                self.on_new_set(new_id)
        self.set_extend[(set_id, value_id)] = new_id
        return new_id

    def intern_value_set(self, values: Iterable[Hashable]) -> int:
        """Intern a set of packet values by folding extensions."""
        set_id = 0
        for value in values:
            set_id = self.extend_set(set_id, self.intern_value(value))
        return set_id

    # Hooks for the subclass that maintains parallel per-id tables (the
    # sharded driver adds content digests); a lone shard pays one no-op
    # call per *new* id only.
    def on_new_sender(self, sid: int) -> None:
        pass

    def on_new_receiver(self, rid: int) -> None:
        pass

    def on_new_value(self, vid: int) -> None:
        pass

    def on_new_set(self, set_id: int) -> None:
        pass

    # -- memoised transitions ------------------------------------------
    def sender_ready(self, sid: int) -> bool:
        ready = self.ready_memo.get(sid)
        if ready is None:
            self._load_sender(sid)
            probe = getattr(self.sender, "ready_for_message", None)
            ready = True if probe is None else bool(probe())
            self.ready_memo[sid] = ready
        return ready

    def inject_targets(self, sid: int) -> Tuple[int, ...]:
        """Sender successors per alphabet message; empty when not ready."""
        if not self.sender_ready(sid):
            return ()
        return tuple(
            self.sender_after_msg(sid, index)
            for index in range(len(self.alphabet))
        )

    def sender_after_msg(self, sid: int, msg_index: int) -> int:
        key = (sid, msg_index)
        nid = self.msg_memo.get(key)
        if nid is None:
            self.memo_misses += 1
            sender = self._load_sender(sid)
            if self.sender_fast:
                sender.on_send_msg(self.alphabet[msg_index])
                nid = self._intern_sender_key(
                    (sender.current_packet, sender.protocol_fields())
                )
            else:
                sender.handle_input(send_msg(self.alphabet[msg_index]))
                nid = self.intern_sender(sender)
            self.msg_memo[key] = nid
        else:
            self.memo_hits += 1
        return nid

    def sender_output(self, sid: int) -> Optional[Tuple[int, int]]:
        """``(successor id, sent value id)`` or ``None`` when quiescent."""
        if sid in self.out_memo:
            self.memo_hits += 1
            return self.out_memo[sid]
        self.memo_misses += 1
        if self.sender_fast:
            # The offered packet is the key's current_packet field; a
            # quiescent sender needs no automaton work at all.
            packet = self.sender_keys[sid][0]
            if packet is None:
                transition = None
            else:
                sender = self._load_sender(sid)
                sender.on_packet_sent(packet)
                transition = (
                    self._intern_sender_key(
                        (sender.current_packet, sender.protocol_fields())
                    ),
                    self.intern_value(packet),
                )
        else:
            sender = self._load_sender(sid)
            output = sender.next_output()
            if output is None or output.type is not ActionType.SEND_PKT:
                transition = None
            else:
                sender.perform_output(output)
                transition = (
                    self.intern_sender(sender),
                    self.intern_value(output.packet),
                )
        self.out_memo[sid] = transition
        return transition

    def sender_after_rcv(self, sid: int, value_id: int) -> int:
        key = (sid, value_id)
        nid = self.sender_rcv_memo.get(key)
        if nid is None:
            self.memo_misses += 1
            sender = self._load_sender(sid)
            if self.sender_fast:
                sender.on_packet(self.values[value_id])
                nid = self._intern_sender_key(
                    (sender.current_packet, sender.protocol_fields())
                )
            else:
                sender.handle_input(
                    receive_pkt(Direction.R2T, self.values[value_id])
                )
                nid = self.intern_sender(sender)
            self.sender_rcv_memo[key] = nid
        else:
            self.memo_hits += 1
        return nid

    def receiver_after_rcv(
        self, rid: int, value_id: int
    ) -> Tuple[int, Tuple[int, ...], int]:
        """Deliver a value to the receiver and flush its outputs.

        Returns ``(successor id, value ids of the r->t packets the
        flush emitted, messages the flush delivered)``.  The engine
        (:meth:`repro.datalink.system.DataLinkSystem.pump_receiver`)
        always drains the receiver's output queues before anything else
        can observe them, so transient queue states are engine
        artifacts, not protocol states; flushing here keeps them out of
        the ``k_r`` count (without it, ack queues of every length
        register as distinct states and the count diverges).  The
        delivery count feeds the checker's delivered field.
        """
        key = (rid, value_id)
        memo = self.receiver_rcv_memo.get(key)
        if memo is not None:
            self.memo_hits += 1
            return memo
        self.memo_misses += 1
        receiver = self.receiver
        emitted: List[int] = []
        delivered = 0
        if self.receiver_fast:
            deliveries_key, outgoing_key, fields = self.receiver_keys[rid]
            deliveries = receiver._deliveries
            outgoing = receiver._outgoing
            deliveries.clear()
            outgoing.clear()
            if deliveries_key:
                deliveries.extend(deliveries_key)
            if outgoing_key:
                outgoing.extend(outgoing_key)
            receiver.set_protocol_fields(fields)
            receiver.on_packet(self.values[value_id])
            by_objid = self.value_id_by_objid
            # Drain exactly as the base plumbing would: deliveries take
            # priority, re-checked after every hook (on_delivered may
            # queue more output).
            while True:
                if deliveries:
                    delivered += 1
                    receiver.messages_delivered += 1
                    receiver.on_delivered(deliveries.popleft())
                elif outgoing:
                    packet = outgoing.popleft()
                    vid = by_objid.get(id(packet))
                    if vid is None:
                        vid = self.intern_value(packet)
                        by_objid[id(packet)] = vid
                        self._value_refs.append(packet)
                    emitted.append(vid)
                else:
                    break
            # Queues are empty after the flush, so the protocol-state
            # key is ((), (), fields).
            memo = (
                self._intern_receiver_key(((), (), receiver.protocol_fields())),
                tuple(emitted),
                delivered,
            )
        else:
            receiver.restore(self.receiver_snaps[rid])
            receiver.handle_input(
                receive_pkt(Direction.T2R, self.values[value_id])
            )
            while True:
                output = receiver.next_output()
                if output is None:
                    break
                receiver.perform_output(output)
                if output.type is ActionType.SEND_PKT:
                    emitted.append(self.intern_value(output.packet))
                elif output.type is ActionType.RECEIVE_MSG:
                    delivered += 1
            memo = (self.intern_receiver(receiver), tuple(emitted), delivered)
        self.receiver_rcv_memo[key] = memo
        return memo

    # -- combined delta builders ---------------------------------------
    # A successor differs from its configuration in whole fields, so
    # the packed difference depends only on the fields a move class
    # reads.  These builders run once per distinct key and return
    # plain-int deltas the kernels apply with a single addition.

    def build_inject_deltas(self, sid: int) -> Tuple[int, ...]:
        """Deltas for environment injections from sender state ``sid``."""
        return tuple(
            (nsid - sid) + _ONE_INJ for nsid in self.inject_targets(sid)
        )

    def build_output_delta(self, sid: int, t2r: int) -> Optional[int]:
        """Delta for the sender's enabled output, or ``None``."""
        fired = self.sender_output(sid)
        if fired is None:
            return None
        nsid, vid = fired
        return (nsid - sid) + (
            (self.extend_set(t2r, vid) - t2r) << _S_T2R
        )

    def build_deliver_deltas(
        self, rid: int, t2r: int, r2t: int,
        delivered: int = 0, del_cap: int = 0,
    ) -> Tuple[int, ...]:
        """Deltas for delivering each t->r value to the receiver.

        With a nonzero ``del_cap`` each delta also advances the
        delivered field from ``delivered``, saturating at ``del_cap``.
        """
        deltas = []
        rcv_get = self.receiver_rcv_memo.get
        extend_get = self.set_extend.get
        for vid in self.set_members[t2r]:
            memo = rcv_get((rid, vid))
            if memo is None:
                memo = self.receiver_after_rcv(rid, vid)
            else:
                self.memo_hits += 1
            new_rid, emitted, count = memo
            new_r2t = r2t
            for emitted_id in emitted:
                extended = extend_get((new_r2t, emitted_id))
                new_r2t = (
                    extended if extended is not None
                    else self.extend_set(new_r2t, emitted_id)
                )
            delta = ((new_rid - rid) << _S_RID) + ((new_r2t - r2t) << _S_R2T)
            if del_cap:
                delta += (min(delivered + count, del_cap) - delivered) << _S_DEL
            deltas.append(delta)
        return tuple(deltas)

    def build_ack_deltas(self, sid: int, r2t: int) -> Tuple[int, ...]:
        """Deltas for delivering each r->t value to the sender."""
        return tuple(
            (self.sender_after_rcv(sid, vid) - sid)
            for vid in self.set_members[r2t]
        )


def explore_station_states(
    sender: IOAutomaton,
    receiver: IOAutomaton,
    message_alphabet: Iterable[Hashable],
    max_messages: int = 2,
    max_configurations: int = 200_000,
    parallel: int = 0,
    checkpoint_every: int = 0,
    checkpoint_dir: Optional[str] = None,
    resume: bool = True,
) -> ExplorationResult:
    """Enumerate station states reachable under an adversarial channel.

    Args:
        sender: the transmitting-station automaton ``A^t`` (in any
            state; exploration starts from its current state).
        receiver: the receiving-station automaton ``A^r``.
        message_alphabet: message values the environment may submit.
        max_messages: how many ``send_msg`` inputs the environment may
            inject along any explored path.  State counts of bounded
            protocols (e.g. alternating bit over a unary alphabet)
            saturate at small values.
        max_configurations: exploration budget; when exceeded the
            result is marked ``truncated``.
        parallel: ``>= 2`` routes through the sharded entry
            (:func:`repro.ioa.exploration_parallel.explore_station_states_parallel`),
            which spreads the search across worker processes when more
            than one CPU is available.  ``0``/``1`` is the serial path.
        checkpoint_every: snapshot the search every N frontier levels
            (routes through the sharded entry even for
            ``parallel <= 1``, which then runs one in-process shard).
            ``0`` disables checkpointing.
        checkpoint_dir: directory for checkpoint files; defaults to
            ``<result cache dir>/exploration`` when checkpointing is
            enabled.  Passing a directory enables checkpointing.
        resume: continue from a matching checkpoint instead of
            restarting (checkpointed runs only).

    Returns:
        An :class:`ExplorationResult` with the visited station states.

    Every path runs the one level-synchronous BFS driver of
    :mod:`repro.ioa.exploration_parallel`.  The serial path truncates
    at exactly ``max_configurations`` visited configurations, in
    BFS-FIFO order: it expands only a prefix of the level that would
    overrun the budget.  The sharded entry truncates at level barriers,
    so truncated sharded results are deterministic for any worker count
    but can exceed the cap by up to one level.  Non-truncated results
    are identical on every path.
    """
    from repro.ioa import exploration_parallel as driver

    if (parallel and parallel > 1) or checkpoint_every > 0 \
            or checkpoint_dir is not None:
        return driver.explore_station_states_parallel(
            sender,
            receiver,
            message_alphabet,
            max_messages=max_messages,
            max_configurations=max_configurations,
            workers=max(1, int(parallel)),
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
        )
    return driver._explore(
        sender,
        receiver,
        message_alphabet,
        max_messages=max_messages,
        max_configurations=max_configurations,
        workers=1,
        use_processes=False,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=None,
        resume=resume,
        exact=True,
    )
