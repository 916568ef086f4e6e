"""The level-synchronous BFS behind exploration and the checker.

Theorem 2.1's state counts (:func:`repro.ioa.exploration.explore_station_states`)
and the checker's property hunt (:func:`repro.checker.engine.check_protocol`)
are one bounded reachability search over the set-abstracted channels.
This module is that search, once, in one process: one search class,
one coordinator and two per-configuration level loops.  Exploration is
a search whose property never hits; the outputs only exploration needs
-- station-state sets, the pair count, packet values -- are read off
the visited set after the search, the way the checker reconstructs
counterexample paths after it, so a check never pays for them.

The search proceeds in frontier *levels*: all configurations at BFS
depth ``d`` are expanded before any at depth ``d + 1``, and each newly
adopted level is scanned with the property before it is expanded.  The
set of configurations at each level is a property of the protocol
alone (successors of the previous level, minus everything already
seen), so verdicts, state counts and counterexamples do not depend
on the order in which a level is expanded.

Two loops expand a level:

* :meth:`_BFS.run_levels` -- the tight loop, used when parents are not
  tracked: many levels per call, with every barrier (property scan,
  budget, hit stop) at a level boundary;
* :meth:`_BFS.expand` -- one level per call, proposing a parent for
  every successor; used when a counterexample path is reconstructed.

Canonical targets and parents
-----------------------------

Hit targets and parents are named by a **stable content digest**
(BLAKE2b over a canonical pickle) of the station protocol-states and
channel value-sets -- never Python's per-process-randomised ``hash``
-- so a counterexample is the same in every process.  Set digests
are commutative sums of member digests.  Digest tables are kept per
intern id only while tracking parents; otherwise a hit's digest is
computed from its content (:func:`portable_digest`).
The target is the minimum ``(digest, canonical)`` over the hits at the
stop barrier, and each configuration keeps its minimum-rank parent
proposal ``(parent digest, move class, argument rank)``, so the path
does not depend on the order in which a level is expanded.

Truncation
----------

The level-barrier entry (:func:`explore_station_states_parallel`, and
every checker search) stops at the first level barrier at or past the
budget, so a truncated run may visit up to one level more than
``max_configurations``.  The serial exploration entry instead cuts
inside the level that would overrun the budget -- it expands only that
level's first ``budget - visited`` configurations -- which is exactly
the BFS-FIFO cut: Theorem 2.1's growth tables print that count.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from typing import (
    Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple,
)

from repro.ioa.actions import Direction
from repro.ioa.automaton import IOAutomaton
from repro.ioa.exploration import (
    _FIELD_BITS,
    _FIELD_MASK,
    _MISSING,
    _PAIR_MASK,
    _S_DEL,
    _S_INJ,
    _S_R2T,
    _S_RID,
    _S_T2R,
    ExplorationCapacityError,
    ExplorationResult,
    _InternedSearch,
    configs_per_sec,
)

__all__ = [
    "BFS_ENGINES",
    "explore_station_states_parallel",
    "portable_digest",
    "resolve_engine_tier",
]

#: The names :func:`resolve_engine_tier` accepts.
BFS_ENGINES = ("auto", "interpreted")

_DIGEST_MOD = 1 << 64

#: Move-class codes used in parent ranks.
_MOVE_INJECT, _MOVE_OUTPUT, _MOVE_DELIVER, _MOVE_ACK = 0, 1, 2, 3

#: The injected-count field in place, and the receiver/channel fields
#: a delivery reads, shifted down to the receiver id.
_INJ_FIELD = _FIELD_MASK << _S_INJ
_DELIVER_KEY = (1 << (3 * _FIELD_BITS)) - 1


# ----------------------------------------------------------------------
# Stable content digests
# ----------------------------------------------------------------------

def _canon(value: Any) -> Any:
    """Canonical form with deterministic iteration order.

    ``pickle`` of a set or dict depends on iteration order, which is
    per-process; sorting (by ``repr`` so mixed types never raise)
    makes the pickled bytes a pure function of the value.  Tags keep
    a canonicalised set distinguishable from a tuple of its members.
    """
    if isinstance(value, dict):
        return (
            "\x00d",
            tuple(sorted(
                ((_canon(k), _canon(v)) for k, v in value.items()),
                key=repr,
            )),
        )
    if isinstance(value, (set, frozenset)):
        return ("\x00s", tuple(sorted((_canon(v) for v in value), key=repr)))
    if isinstance(value, (list, tuple)):
        return tuple(_canon(v) for v in value)
    return value


def _stable_digest(value: Any) -> int:
    """64-bit content digest, identical in every process."""
    blob = pickle.dumps(_canon(value), protocol=4)
    return int.from_bytes(
        hashlib.blake2b(blob, digest_size=8).digest(), "big"
    )


def portable_digest(portable: Tuple) -> int:
    """Stable digest of a portable configuration.

    Mirrors ``_BFS._config_digest`` exactly (set digests are
    commutative sums of member digests), so a search without digest
    tables -- one that does not track parents -- reports the same hit
    digests as one that does.
    """
    skey, rkey, t2r_values, r2t_values, injected, delivered = portable
    return (
        _stable_digest(skey)
        + 3 * _stable_digest(rkey)
        + 5 * (sum(_stable_digest(v) for v in t2r_values) % _DIGEST_MOD)
        + 7 * (sum(_stable_digest(v) for v in r2t_values) % _DIGEST_MOD)
        + 11 * injected
        + 13 * delivered
    ) % _DIGEST_MOD


def resolve_engine_tier(engine: str, prop: Any = None,
                        track_parents: bool = False) -> str:
    """Validate a BFS tier name; always ``"interpreted"``.

    The BFS has a single tier and no entry point takes an ``engine=``
    keyword any more.  This validator stays because the end-to-end
    benchmark's set-up probe (``benchmarks/e2e/probe.py``) resolves it
    by name when it times a check's planning; ``prop`` and
    ``track_parents`` are accepted for that call and ignored.
    """
    del prop, track_parents
    if engine not in BFS_ENGINES:
        raise ValueError(
            f"engine must be one of {BFS_ENGINES}, got {engine!r}"
        )
    return "interpreted"


class _DigestSearch(_InternedSearch):
    """Interned search that also keeps a content digest per id.

    Digests are maintained through the ``on_new_*`` interning hooks,
    so each distinct state/value/set is digested exactly once.  Only
    searches that name parents (path reconstruction) use this class;
    the others pay nothing.
    """

    __slots__ = ("sender_dg", "receiver_dg", "value_dg", "set_dg")

    def __init__(self, sender, receiver, alphabet) -> None:
        self.sender_dg: List[int] = []
        self.receiver_dg: List[int] = []
        self.value_dg: List[int] = []
        self.set_dg: List[int] = [0]  # the empty set
        super().__init__(sender, receiver, alphabet)

    def on_new_sender(self, sid: int) -> None:
        self.sender_dg.append(_stable_digest(self.sender_keys[sid]))

    def on_new_receiver(self, rid: int) -> None:
        self.receiver_dg.append(_stable_digest(self.receiver_keys[rid]))

    def on_new_value(self, vid: int) -> None:
        self.value_dg.append(_stable_digest(self.values[vid]))

    def on_new_set(self, set_id: int) -> None:
        value_dg = self.value_dg
        self.set_dg.append(
            sum(value_dg[m] for m in self.set_members[set_id]) % _DIGEST_MOD
        )


# ----------------------------------------------------------------------
# The search
# ----------------------------------------------------------------------

class _BFS:
    """All mutable state of one level-synchronous search.

    The coordinator (:func:`_run_search`) stages the seed
    (:meth:`stage_seed`) and adopts it (:meth:`adopt`); then either
    :meth:`run_levels` runs the remaining levels, or :meth:`expand`
    and :meth:`adopt` alternate once per level.  :meth:`finish`
    collects the results; :meth:`resolve` serves path reconstruction.

    ``prop`` is a checker property, or ``None`` for exploration;
    ``del_cap`` is the saturating delivered field (``0`` when off);
    ``capacity`` bounds the channel value sets (``None`` when off);
    ``forgery_free`` turns the delivered field on (at
    ``max_messages + 1``) and makes :meth:`run_levels` drop every
    delivery whose successor has delivered more messages than were
    injected.  Only exploration sets it, and exploration never tracks
    parents, so :meth:`expand` does not read it.
    """

    def __init__(self, sender: IOAutomaton, receiver: IOAutomaton,
                 alphabet: List[Hashable], max_messages: int, *,
                 prop: Any = None, track_parents: bool = False,
                 del_cap: int = 0, capacity: Optional[int] = None,
                 forgery_free: bool = False) -> None:
        if forgery_free:
            del_cap = max_messages + 1
        self.max_messages = max_messages
        self.track_parents = track_parents
        self.del_cap = del_cap
        self.capacity = capacity
        self.forgery_free = forgery_free
        # A delivery's successor depends on the delivered field only
        # when it is tracked, so only then does the memo key read it.
        self.deliver_mask = _DELIVER_KEY | (
            (_FIELD_MASK << (_S_DEL - _S_RID)) if del_cap else 0
        )
        # Digest tables name parents for path reconstruction.
        search_class = _DigestSearch if track_parents else _InternedSearch
        alphabet = list(alphabet)
        self.search = search_class(sender, receiver, alphabet)
        self.scan: Optional[Callable[[List[int]], List[int]]] = None
        if prop is not None:
            from repro.checker.properties import BindContext

            self.scan = prop.bind(
                BindContext(self.search, max_messages, alphabet, del_cap)
            )
        self.seen: set = set()
        self.frontier: List[int] = []
        self.pending: List[int] = []
        self.visited = 0
        self.dup_skipped = 0
        self.pruned = 0
        self.hits_found = 0
        self.scanned = 0
        # cfg -> (parent digest, move, arg rank, label), None for seed
        self.parents: Dict[int, Optional[Tuple]] = {}
        self.by_digest: Dict[int, int] = {}
        # Proposals for configurations discovered at the level in
        # flight; finalised (min rank wins) at the next adopt barrier.
        self.level_parents: Dict[int, Optional[Tuple]] = {}
        # Per-move delta memos; see repro.ioa.exploration.
        self.inject_memo: Dict[int, Tuple[int, ...]] = {}
        self.output_memo: Dict[int, Optional[int]] = {}
        self.deliver_memo: Dict[int, Tuple[int, ...]] = {}
        self.ack_memo: Dict[int, Tuple[int, ...]] = {}

    # -- config plumbing -----------------------------------------------
    def _config_digest(self, cfg: int) -> int:
        s = self.search
        return (
            s.sender_dg[cfg & _FIELD_MASK]
            + 3 * s.receiver_dg[(cfg >> _S_RID) & _FIELD_MASK]
            + 5 * s.set_dg[(cfg >> _S_T2R) & _FIELD_MASK]
            + 7 * s.set_dg[(cfg >> _S_R2T) & _FIELD_MASK]
            + 11 * ((cfg >> _S_INJ) & _FIELD_MASK)
            + 13 * (cfg >> _S_DEL)
        ) % _DIGEST_MOD

    def _portable(self, cfg: int) -> Tuple:
        """Id-free encoding of ``cfg``: ``(sender key, receiver key,
        t->r values, r->t values, injected, delivered)``."""
        s = self.search
        values = s.values
        return (
            s.sender_keys[cfg & _FIELD_MASK],
            s.receiver_keys[(cfg >> _S_RID) & _FIELD_MASK],
            tuple(values[v]
                  for v in s.set_members[(cfg >> _S_T2R) & _FIELD_MASK]),
            tuple(values[v]
                  for v in s.set_members[(cfg >> _S_R2T) & _FIELD_MASK]),
            (cfg >> _S_INJ) & _FIELD_MASK,
            cfg >> _S_DEL,
        )

    def _canonical(self, cfg: int) -> Tuple:
        """Order-free canonical form, the hit target's tiebreaker.

        Channel-set orderings vary with the order in which values were
        interned, so the sets are sorted; everything else is content.
        """
        skey, rkey, t2r, r2t, injected, delivered = self._portable(cfg)
        return (
            skey, rkey,
            tuple(sorted(t2r, key=repr)), tuple(sorted(r2t, key=repr)),
            injected, delivered,
        )

    def _scan(self, frontier: List[int]) -> List[Tuple]:
        """Scan a newly adopted level; its hit reports."""
        if self.scan is None:
            return []
        self.scanned += len(frontier)
        hits = self.scan(frontier)
        self.hits_found += len(hits)
        return [
            (
                self._config_digest(cfg) if self.track_parents
                else portable_digest(self._portable(cfg)),
                self._canonical(cfg),
            )
            for cfg in hits
        ]

    # -- levels --------------------------------------------------------
    def stage_seed(self) -> None:
        """Stage the initial configuration for the first :meth:`adopt`.

        The seed is both stations in their current states over empty
        channels; interning it first gives its stations id 0.
        """
        s = self.search
        sid = s.intern_sender(s.sender.protocol_state())
        cfg = sid | (s.intern_receiver(s.receiver.protocol_state()) << _S_RID)
        self.seen.add(cfg)
        self.pending.append(cfg)
        if self.track_parents:
            self.level_parents[cfg] = None

    def adopt(self) -> List[Tuple]:
        """Make the staged level the frontier and scan it.

        The adopted frontier is exactly the set of configurations
        discovered at this BFS level, so scanning it here tests every
        reachable configuration exactly once.  Returns the level's hit
        reports, ``(digest, canonical)`` pairs.
        """
        frontier = self.frontier = self.pending
        self.pending = []
        level_parents = self.level_parents
        if level_parents:
            parents = self.parents
            by_digest = self.by_digest
            for cfg, meta in level_parents.items():
                parents[cfg] = meta
                by_digest[self._config_digest(cfg)] = cfg
            level_parents.clear()
        return self._scan(frontier)

    def expand(self) -> int:
        """Expand the frontier level, proposing parents; returns its size.

        The parent-tracking loop: every successor goes through
        ``propose``, which prunes by capacity, deduplicates, and keeps
        the minimum-rank proposal for a configuration first seen at
        this level.
        """
        search = self.search
        seen = self.seen
        pending = self.pending
        mask = _FIELD_MASK
        inj_limit = self.max_messages << _S_INJ
        del_cap = self.del_cap
        deliver_mask = self.deliver_mask
        capacity = self.capacity
        level_parents = self.level_parents
        alphabet = search.alphabet
        values = search.values
        set_members = search.set_members
        value_dg = search.value_dg
        inject_memo = self.inject_memo
        output_memo = self.output_memo
        deliver_memo = self.deliver_memo
        ack_memo = self.ack_memo
        dup_skipped = 0
        pruned = 0

        def propose(successor: int, meta: Tuple) -> None:
            nonlocal dup_skipped, pruned
            if capacity is not None and (
                len(set_members[(successor >> _S_T2R) & mask]) > capacity
                or len(set_members[(successor >> _S_R2T) & mask]) > capacity
            ):
                pruned += 1
                return
            if successor in seen:
                dup_skipped += 1
                old = level_parents.get(successor)
                if old is not None and meta[:3] < old[:3]:
                    level_parents[successor] = meta
            else:
                seen.add(successor)
                pending.append(successor)
                level_parents[successor] = meta

        for cfg in self.frontier:
            sid = cfg & mask
            rid = (cfg >> _S_RID) & mask
            t2r = (cfg >> _S_T2R) & mask
            r2t = (cfg >> _S_R2T) & mask
            pdigest = self._config_digest(cfg)
            # The four move classes, in the level loop's order.
            if (cfg & _INJ_FIELD) < inj_limit:
                deltas = inject_memo.get(sid)
                if deltas is None:
                    deltas = search.build_inject_deltas(sid)
                    inject_memo[sid] = deltas
                for index, delta in enumerate(deltas):
                    propose(
                        cfg + delta,
                        (pdigest, _MOVE_INJECT, index,
                         ("inject", alphabet[index])),
                    )
            key = sid | (t2r << _FIELD_BITS)
            delta = output_memo.get(key, _MISSING)
            if delta is _MISSING:
                delta = search.build_output_delta(sid, t2r)
                output_memo[key] = delta
            if delta is not None:
                propose(
                    cfg + delta,
                    (pdigest, _MOVE_OUTPUT, 0,
                     ("output", values[search.out_memo[sid][1]])),
                )
            if t2r:
                key = (cfg >> _S_RID) & deliver_mask
                deltas = deliver_memo.get(key)
                if deltas is None:
                    deltas = search.build_deliver_deltas(
                        rid, t2r, r2t, cfg >> _S_DEL, del_cap
                    )
                    deliver_memo[key] = deltas
                members = set_members[t2r]
                for index, delta in enumerate(deltas):
                    vid = members[index]
                    propose(
                        cfg + delta,
                        (pdigest, _MOVE_DELIVER, value_dg[vid],
                         ("deliver", values[vid])),
                    )
            if r2t:
                key = sid | (r2t << _FIELD_BITS)
                deltas = ack_memo.get(key)
                if deltas is None:
                    deltas = search.build_ack_deltas(sid, r2t)
                    ack_memo[key] = deltas
                members = set_members[r2t]
                for index, delta in enumerate(deltas):
                    vid = members[index]
                    propose(
                        cfg + delta,
                        (pdigest, _MOVE_ACK, value_dg[vid],
                         ("ack", values[vid])),
                    )

        expanded = len(self.frontier)
        self.visited += expanded
        self.dup_skipped += dup_skipped
        self.pruned += pruned
        self.frontier = []
        return expanded

    def run_levels(self, max_configurations: int,
                   exact: bool) -> Dict[str, Any]:
        """The tight loop: many levels per call, no parent tracking.

        Without parents a successor needs no proposal, so each one
        costs a delta addition and a membership test, and the loop
        runs level after level without returning to the coordinator.
        Every barrier -- property scan, budget truncation, hit stop --
        happens at exactly the level boundaries of :meth:`expand`'s
        coordinator loop, so verdicts and counts are identical.
        Capacity pruning checks only the set a move can grow:
        injections and sender deliveries keep both channel sets.  The
        forgery prune checks deliveries to the receiver only: no other
        move raises the delivered field.

        The entry frontier must already be adopted (and therefore
        scanned) by :meth:`adopt`; the caller handles a hit there
        without entering this loop.

        Args:
            max_configurations: visit budget.
            exact: cut inside the level that would overrun the budget
                (the BFS-FIFO cut) instead of at its barrier.
        """
        search = self.search
        seen = self.seen
        seen_add = seen.add
        queue = self.frontier
        mask = _FIELD_MASK
        inj_limit = self.max_messages << _S_INJ
        del_cap = self.del_cap
        deliver_mask = self.deliver_mask
        capacity = self.capacity
        forgery_free = self.forgery_free
        set_members = search.set_members
        scanning = self.scan is not None
        inject_memo = self.inject_memo
        output_memo = self.output_memo
        deliver_memo = self.deliver_memo
        ack_memo = self.ack_memo
        inject_get = inject_memo.get
        output_get = output_memo.get
        deliver_get = deliver_memo.get
        ack_get = ack_memo.get
        visited = level_start = self.visited
        dup_skipped = 0
        pruned = 0
        level = 0
        truncated = False
        complete = False
        hits: List[Tuple] = []
        rest: List[int] = []
        next_queue: List[int] = []

        def flush(frontier: List[int]) -> None:
            nonlocal dup_skipped, pruned
            self.visited = visited
            self.dup_skipped += dup_skipped
            self.pruned += pruned
            dup_skipped = 0
            pruned = 0
            self.frontier = frontier

        try:
            while True:
                if not queue:
                    complete = True
                    break
                if visited >= max_configurations:
                    truncated = True
                    break
                if exact and visited + len(queue) > max_configurations:
                    rest = queue[max_configurations - visited:]
                    queue = queue[:max_configurations - visited]
                level_start = visited
                next_queue = []
                next_append = next_queue.append
                for cfg in queue:
                    visited += 1
                    sid = cfg & mask
                    rid = (cfg >> _S_RID) & mask
                    t2r = (cfg >> _S_T2R) & mask
                    r2t = (cfg >> _S_R2T) & mask
                    # 1. The environment injects a new message.  The
                    # environment is the paper's one-outstanding-message
                    # regime: it submits only when the sender signals
                    # readiness (``ready_for_message``).
                    if (cfg & _INJ_FIELD) < inj_limit:
                        deltas = inject_get(sid)
                        if deltas is None:
                            deltas = search.build_inject_deltas(sid)
                            inject_memo[sid] = deltas
                        for delta in deltas:
                            successor = cfg + delta
                            if successor in seen:
                                dup_skipped += 1
                            else:
                                seen_add(successor)
                                next_append(successor)
                    # 2. The sender fires its enabled output (a
                    # send_pkt^{t->r}).
                    key = sid | (t2r << _FIELD_BITS)
                    delta = output_get(key, _MISSING)
                    if delta is _MISSING:
                        delta = search.build_output_delta(sid, t2r)
                        output_memo[key] = delta
                    if delta is not None:
                        successor = cfg + delta
                        if successor in seen:
                            dup_skipped += 1
                        elif capacity is not None and len(set_members[
                            (successor >> _S_T2R) & mask
                        ]) > capacity:
                            pruned += 1
                        else:
                            seen_add(successor)
                            next_append(successor)
                    # 3. The channel delivers some value to the receiver
                    # (set-abstraction: the value stays available
                    # afterwards); the receiver's outputs are flushed
                    # atomically, mirroring the engine's pump discipline.
                    if t2r:
                        key = (cfg >> _S_RID) & deliver_mask
                        deltas = deliver_get(key)
                        if deltas is None:
                            deltas = search.build_deliver_deltas(
                                rid, t2r, r2t, cfg >> _S_DEL, del_cap
                            )
                            deliver_memo[key] = deltas
                        for delta in deltas:
                            successor = cfg + delta
                            if successor in seen:
                                dup_skipped += 1
                            elif capacity is not None and len(set_members[
                                (successor >> _S_R2T) & mask
                            ]) > capacity:
                                pruned += 1
                            elif forgery_free and (successor >> _S_DEL) > (
                                (successor >> _S_INJ) & mask
                            ):
                                pruned += 1
                            else:
                                seen_add(successor)
                                next_append(successor)
                    # 4. The channel delivers some value to the sender.
                    if r2t:
                        key = sid | (r2t << _FIELD_BITS)
                        deltas = ack_get(key)
                        if deltas is None:
                            deltas = search.build_ack_deltas(sid, r2t)
                            ack_memo[key] = deltas
                        for delta in deltas:
                            successor = cfg + delta
                            if successor in seen:
                                dup_skipped += 1
                            else:
                                seen_add(successor)
                                next_append(successor)
                level += 1
                if rest:
                    truncated = True
                    queue = rest + next_queue
                    break
                queue = next_queue
                if scanning:
                    hits = self._scan(queue)
                    if hits:
                        break
        except ExplorationCapacityError as exc:
            # Keep the progress: the configurations after the one that
            # overflowed stay unexpanded, and the caller's partial
            # accounting reads the flushed counters.
            flush(queue[visited - level_start:] + rest + next_queue)
            if exc.levels_completed is None:
                exc.levels_completed = level
            if exc.configurations_seen is None:
                exc.configurations_seen = visited
            raise

        flush(queue)
        return {
            "levels": level,
            "visited": visited,
            "truncated": truncated,
            "complete": complete,
            "hits": hits,
        }

    # -- path reconstruction -------------------------------------------
    def resolve(self, digest: int) -> Optional[Tuple]:
        """``(portable, parent digest, label)`` of the tracked
        configuration with ``digest``, or ``None`` when there is none.
        The seed's parent digest and label are ``None``."""
        cfg = self.by_digest.get(digest)
        if cfg is None:
            return None
        meta = self.parents.get(cfg)
        if meta is None:
            return self._portable(cfg), None, None
        return self._portable(cfg), meta[0], meta[3]

    # -- results -------------------------------------------------------
    def finish(self, states: bool) -> Dict[str, Any]:
        s = self.search
        stats = {
            "visited": self.visited,
            "seen": len(self.seen),
            "dup_skipped": self.dup_skipped,
            "pruned": self.pruned,
            "scanned": self.scanned,
            "hits_found": self.hits_found,
            "memo_hits": s.memo_hits,
            "memo_misses": s.memo_misses,
            "interned_sender_states": len(s.sender_keys),
            "interned_receiver_states": len(s.receiver_keys),
            "interned_packet_values": len(s.values),
            "interned_value_sets": len(s.set_members),
        }
        if states:
            stats.update(self._states())
        return stats

    def _expanded_ids(self) -> Tuple[set, ...]:
        """Ids the expanded configurations touched, read off the memos.

        Every expanded configuration looks up its sender's output, so
        ``out_memo`` holds exactly the expanded sender ids and, in its
        transitions, every value sent t->r.  The receiver moves only
        on deliveries, which need a nonempty t->r set; so the expanded
        receiver ids are the keys of ``receiver_rcv_memo`` plus the
        seed's (id 0: the seed is interned first), and its transitions
        hold every value sent r->t.
        """
        out_memo = self.search.out_memo
        rcv_memo = self.search.receiver_rcv_memo
        seed_rid = {0} if self.visited else set()
        return (
            set(out_memo),
            seed_rid | {rid for rid, _vid in rcv_memo},
            {sent[1] for sent in out_memo.values() if sent is not None},
            {vid for _rid, emitted, _count in rcv_memo.values()
             for vid in emitted},
        )

    def _states(self) -> Dict[str, Any]:
        """The exploration outputs, computed after the search.

        Station states and packet values come from the ids the
        expanded configurations touched; the pair count ranges over
        every configuration reached.
        """
        s = self.search
        sids, rids, t2r, r2t = self._expanded_ids()
        values = s.values
        return {
            "sender_states": {s.sender_keys[sid] for sid in sids},
            "receiver_states": {s.receiver_keys[rid] for rid in rids},
            "pair_count": len({cfg & _PAIR_MASK for cfg in self.seen}),
            "packet_values": {
                Direction.T2R: {values[vid] for vid in t2r},
                Direction.R2T: {values[vid] for vid in r2t},
            },
        }


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------

def _run_search(
    sender: IOAutomaton,
    receiver: IOAutomaton,
    alphabet: List[Hashable],
    prop: Any,
    *,
    max_messages: int,
    max_configurations: int,
    track_parents: bool = False,
    del_cap: int = 0,
    capacity: Optional[int] = None,
    forgery_free: bool = False,
    states: bool = False,
    exact: bool = False,
) -> Dict[str, Any]:
    """One complete level-synchronous search.

    ``prop`` is a checker property or ``None`` (exploration);
    ``forgery_free`` keeps the search to configurations that delivered
    no more messages than were injected (see :class:`_BFS`);
    ``states`` asks for the exploration outputs; ``exact`` selects the
    BFS-FIFO cut, for searches without parents only.

    Returns a dict with the verdict ingredients: ``complete`` /
    ``truncated`` flags, the canonical ``target`` (minimum
    ``(digest, canonical)`` over the hit barrier) or ``None``, the
    reconstructed ``path`` when ``track_parents``, the search's
    ``finish`` statistics, and the ``engine`` record.  Raises
    :class:`ExplorationCapacityError` annotated with partial progress
    (and, with ``states``, the partial exploration result) when an
    intern table overflows.
    """
    for name, value in (("max_messages", max_messages),
                        ("max_configurations", max_configurations)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if capacity is not None and capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    started = time.perf_counter()

    bfs = _BFS(
        sender, receiver, alphabet, max_messages, prop=prop,
        track_parents=track_parents, del_cap=del_cap, capacity=capacity,
        forgery_free=forgery_free,
    )
    level = 0
    visited = 0
    complete = False
    truncated = False
    try:
        bfs.stage_seed()
        hit_reports = bfs.adopt()
        if track_parents:
            # Stop at the first hit barrier, the seed's included.
            while not hit_reports:
                if not bfs.frontier:
                    complete = True
                    break
                if visited >= max_configurations:
                    truncated = True
                    break
                visited += bfs.expand()
                level += 1
                hit_reports = bfs.adopt()
        elif not hit_reports:
            stats = bfs.run_levels(max_configurations, exact)
            complete = stats["complete"]
            truncated = stats["truncated"]
            visited = stats["visited"]
            level = stats["levels"]
            hit_reports = stats["hits"]

        target = None
        path = None
        if hit_reports:
            # Min digest selects the canonical target; repr (pure
            # content, unlike pickle's identity-sensitive memo) breaks
            # the astronomically unlikely digest tie.
            target = min(
                hit_reports,
                key=lambda item: (item[0], repr(item[1])),
            )
            if track_parents:
                from repro.checker.engine import _resolve_path

                path = _resolve_path(bfs.resolve, target[0])

        finish = bfs.finish(states)
    except ExplorationCapacityError as error:
        # An intern-table overflow must not discard the search's
        # progress.
        if error.levels_completed is None:
            error.levels_completed = level
        if error.configurations_seen is None:
            error.configurations_seen = visited
        if states:
            error.partial = _exploration_result(bfs.finish(True),
                                                truncated=True)
            error.configurations_seen = error.partial.configurations
        raise

    elapsed = time.perf_counter() - started
    return {
        "complete": complete,
        "truncated": truncated,
        "level": level,
        "visited": visited,
        "hit_reports": hit_reports,
        "target": target,
        "path": path,
        "finish": finish,
        "elapsed_s": round(elapsed, 6),
        "engine": {
            "name": "level-sync",
            "levels": level,
            "track_parents": track_parents,
        },
    }


# ----------------------------------------------------------------------
# Exploration entries
# ----------------------------------------------------------------------

def _exploration_result(finish: Dict[str, Any],
                        truncated: bool) -> ExplorationResult:
    """The exploration outputs of a finished search."""
    return ExplorationResult(
        sender_states=finish["sender_states"],
        receiver_states=finish["receiver_states"],
        pair_count=finish["pair_count"],
        configurations=finish["visited"],
        truncated=truncated,
        packet_values=finish["packet_values"],
    )


def _explore(
    sender: IOAutomaton,
    receiver: IOAutomaton,
    message_alphabet: Iterable[Hashable],
    *,
    max_messages: int,
    max_configurations: int,
    exact: bool,
    forgery_free: bool = False,
) -> ExplorationResult:
    """Exploration: the search with no property, plus its outputs."""
    started = time.perf_counter()
    outcome = _run_search(
        sender, receiver, list(message_alphabet), None,
        max_messages=max_messages,
        max_configurations=max_configurations,
        forgery_free=forgery_free,
        states=True,
        exact=exact,
    )
    finish = outcome["finish"]
    result = _exploration_result(finish, truncated=outcome["truncated"])
    elapsed = time.perf_counter() - started
    result.perf = {
        "elapsed_s": round(elapsed, 6),
        "configs_per_sec": configs_per_sec(outcome["visited"], elapsed),
        **{
            name: finish[key]
            for name, key in (
                ("memo_hits", "memo_hits"),
                ("memo_misses", "memo_misses"),
                ("duplicate_successors_skipped", "dup_skipped"),
                ("successors_pruned", "pruned"),
                ("interned_sender_states", "interned_sender_states"),
                ("interned_receiver_states", "interned_receiver_states"),
                ("interned_packet_values", "interned_packet_values"),
                ("interned_value_sets", "interned_value_sets"),
            )
        },
        "engine": outcome["engine"],
    }
    return result


def explore_station_states_parallel(
    sender: IOAutomaton,
    receiver: IOAutomaton,
    message_alphabet: Iterable[Hashable],
    max_messages: int = 2,
    max_configurations: int = 200_000,
) -> ExplorationResult:
    """Exploration cut at the level barrier past the budget.

    Args:
        sender: the transmitting-station automaton ``A^t``.
        receiver: the receiving-station automaton ``A^r``.
        message_alphabet: message values the environment may submit.
        max_messages: injection budget along any explored path.
        max_configurations: visit budget, enforced at level barriers
            (a truncated run may overshoot by up to one level).

    Returns:
        An :class:`ExplorationResult`.  ``perf["engine"]`` records the
        level count.
    """
    return _explore(
        sender,
        receiver,
        message_alphabet,
        max_messages=max_messages,
        max_configurations=max_configurations,
        exact=False,
    )
