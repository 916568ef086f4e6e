"""The bounded model checker over the sharded exploration engine.

:func:`check_protocol` turns the level-synchronous sharded BFS of
:mod:`repro.ioa.exploration_parallel` into a query engine: every newly
adopted frontier is scanned, shard-locally, against a
:class:`~repro.checker.properties.Property`, and the search stops at
the first level barrier with a hit -- an invariant violation or a
reachability target.  Because BFS levels are a property of the
protocol alone, the verdict, the stop level, the set of hit
configurations and the canonically selected counterexample target are
**identical for any shard count, any backend, any visited-set store,
and across checkpoint resume** -- the same exactness argument as the
state-counting engine, extended to verdicts.

The bounding discipline is the paper's (and the CFSM literature's):
``max_messages`` bounds environment injections per path, ``capacity``
optionally bounds the channel value-set sizes (successors whose
forward/reverse sets would exceed it are pruned -- a per-direction
header budget, making the search finite even for unbounded-header
protocols), and ``max_configurations`` is the visit budget.  A
delivered-message counter is packed into the configuration as a sixth
field -- saturating at ``max_messages + 1`` -- only when the active
property declares ``needs_delivered`` (the Theorem 3.1 forgery
condition reads it); saturation keeps the space finite and still
witnesses every true excess, because injections never exceed
``max_messages``.

Counterexample path reconstruction records, per newly discovered
configuration, a **canonical parent pointer**: among every proposal
``(parent digest, move class, argument rank)`` generated for the
configuration at its discovery level -- across all shards -- the
minimum is kept, so the reconstructed path is shard-count-invariant.
Parents ride the existing level-barrier checkpoint machinery
(``trace="inline"``); the default ``trace="auto"`` runs the main
search without parents and re-runs it (single shard, in process) with
parents only when a hit is found, keeping the common no-hit search at
plain-BFS cost.  The path is then re-executed through the faithful
:class:`~repro.datalink.system.DataLinkSystem` /
``FullTraceSink`` pipeline by :mod:`repro.checker.trace`.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.ioa.automaton import IOAutomaton
from repro.ioa.exploration import (
    _FIELD_BITS,
    _FIELD_MASK,
    _MISSING,
    _S_INJ,
    _S_R2T,
    _S_RID,
    _S_T2R,
    ExplorationCapacityError,
)
from repro.ioa.exploration_parallel import (
    KERNEL_VERSION,
    _DIGEST_MOD,
    _ExplorationShard,
    _ShardSearch,
    _canon,
    _load_checkpoint,
    _save_checkpoint,
    _stable_digest,
    checkpoint_path,
    resolve_engine_tier,
)
from repro.checker.properties import _S_DEL, BindContext, Property, make_property
from repro.checker.result import CheckResult
from repro.checker.store import DiskVisitedStore, LevelLog
from repro.checker.trace import Counterexample, TraceStep, replay_counterexample

__all__ = [
    "CHECKER_CHECKPOINT_FORMAT",
    "check_protocol",
    "checker_checkpoint_key",
    "portable_digest",
]

CHECKER_CHECKPOINT_FORMAT = "repro-checker-checkpoint/1"

#: move-class codes used in parent ranks (coordinate with expand()).
_MOVE_INJECT, _MOVE_OUTPUT, _MOVE_DELIVER, _MOVE_ACK = 0, 1, 2, 3


def portable_digest(portable: Tuple) -> int:
    """Stable digest of a portable configuration.

    Mirrors ``_CheckerShard._config_digest`` exactly (set digests are
    commutative sums of member digests), so a shard without digest
    tables -- the single-shard, no-parents fast path -- reports the
    same hit digests as a sharded run.
    """
    skey, _ssnap, rkey, _rsnap, t2r_values, r2t_values, injected, delivered \
        = portable
    return (
        _stable_digest(skey)
        + 3 * _stable_digest(rkey)
        + 5 * (sum(_stable_digest(v) for v in t2r_values) % _DIGEST_MOD)
        + 7 * (sum(_stable_digest(v) for v in r2t_values) % _DIGEST_MOD)
        + 11 * injected
        + 13 * delivered
    ) % _DIGEST_MOD


class _CheckerSearch(_ShardSearch):
    """Shard search that also counts deliveries per receiver transition.

    ``rcv_dcount[(rid, vid)]`` is the number of ``receive_msg`` outputs
    the memoised transition performs -- measured once per distinct
    transition, alongside the existing memo, and folded into the
    packed delivered field by :meth:`build_deliver_entries`.
    """

    __slots__ = ("rcv_dcount",)

    def __init__(self, sender, receiver, alphabet, result,
                 track_digests: bool) -> None:
        self.rcv_dcount: Dict[Tuple[int, int], int] = {}
        super().__init__(sender, receiver, alphabet, result, track_digests)

    def receiver_after_rcv(self, rid: int, value_id: int):
        key = (rid, value_id)
        memo = self.receiver_rcv_memo.get(key)
        if memo is not None:
            self.memo_hits += 1
            return memo
        if self.receiver_fast:
            before = self.receiver.messages_delivered
            memo = super().receiver_after_rcv(rid, value_id)
            self.rcv_dcount[key] = self.receiver.messages_delivered - before
        else:
            memo = super().receiver_after_rcv(rid, value_id)
            # restore() reset the counter to the snapshot's value, so
            # the transition's deliveries are the difference from it.
            self.rcv_dcount[key] = (
                self.receiver.messages_delivered
                - self.receiver_snaps[rid][2]
            )
        return memo

    def build_deliver_entries(
        self, rid: int, t2r: int, r2t: int
    ) -> Tuple[Tuple[int, int, int], ...]:
        """Like ``build_deliver_deltas`` but each entry carries the
        transition's delivery count and delivered value id:
        ``(packed delta, dcount, vid)``."""
        entries = []
        dcount_of = self.rcv_dcount
        for vid in self.set_members[t2r]:
            new_rid, emitted = self.receiver_after_rcv(rid, vid)
            new_r2t = r2t
            for emitted_id in emitted:
                new_r2t = self.extend_set(new_r2t, emitted_id)
            entries.append((
                ((new_rid - rid) << _S_RID) + ((new_r2t - r2t) << _S_R2T),
                dcount_of[(rid, vid)],
                vid,
            ))
        return tuple(entries)


class _CheckerShard(_ExplorationShard):
    """An exploration shard extended with property scans, parent
    pointers, capacity pruning and an optional disk-backed seen-set.

    New request ops (on top of the base protocol):

    * ``("adopt", inbound, level)`` -- inbound items are
      ``(portable, parent_meta)`` pairs; returns ``{"size", "hits"}``
      where hits are ``(digest, canonical)`` pairs for this level's
      property hits;
    * ``("resolve", digest)`` -- parent-pointer lookup for path
      reconstruction;
    * ``("finish_check",)`` -- checker stats.
    """

    def __init__(self, index: int, num_shards: int, sender: IOAutomaton,
                 receiver: IOAutomaton, alphabet: List[Hashable],
                 max_messages: int, options: Dict[str, Any]) -> None:
        super().__init__(index, num_shards, sender, receiver, alphabet,
                         max_messages)
        self.prop: Property = options["prop"]
        self.track_parents = bool(options.get("track_parents"))
        self.del_cap = int(options.get("del_cap", 0))
        self.capacity: Optional[int] = options.get("capacity")
        # Replace the plain shard search with the delivery-counting
        # one; digest tables are needed for routing (multi-shard) and
        # for parent digests (path reconstruction).
        self.search = _CheckerSearch(
            sender, receiver, list(alphabet), self.result,
            track_digests=(num_shards > 1 or self.track_parents),
        )
        self.ctx = BindContext(
            self.search, max_messages, list(alphabet), self.del_cap
        )
        self.scan = self.prop.bind(self.ctx)
        # cfg -> (parent digest, move, arg rank, label), None for seed
        self.parents: Dict[int, Optional[Tuple]] = {}
        self.by_digest: Dict[int, int] = {}
        # Proposals for configurations discovered at the level in
        # flight; finalised (min rank wins) at the next adopt barrier.
        self.level_parents: Dict[int, Optional[Tuple]] = {}
        self.pruned = 0
        self.hits_found = 0
        self.scanned = 0
        self.store_kind = options.get("store", "memory")
        self.store_dir: Optional[str] = options.get("store_dir")
        self.level_log: Optional[LevelLog] = None
        if self.store_kind == "disk":
            self._attach_disk_store(seed=None)

    def _attach_disk_store(self, seed: Optional[Iterable[int]]) -> None:
        shard_dir = os.path.join(self.store_dir, f"shard-{self.index}")
        store = DiskVisitedStore(os.path.join(shard_dir, "visited"))
        if seed is not None:
            for cfg in seed:  # distinct by construction: no membership test
                store.add(cfg)
        self.seen = store
        self.level_log = LevelLog(os.path.join(shard_dir, "levels"))

    # -- protocol ------------------------------------------------------
    def handle(self, request: Tuple) -> Any:
        op = request[0]
        if op == "adopt":
            return self.adopt(request[1], request[2])
        if op == "resolve":
            return self.resolve(request[1])
        if op == "finish_check":
            return self.finish_check()
        return super().handle(request)

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
        s = self.search
        values = s.values
        return (
            s.sender_keys[cfg & _FIELD_MASK],
            s.sender_snaps[cfg & _FIELD_MASK],
            s.receiver_keys[(cfg >> _S_RID) & _FIELD_MASK],
            s.receiver_snaps[(cfg >> _S_RID) & _FIELD_MASK],
            tuple(values[v]
                  for v in s.set_members[(cfg >> _S_T2R) & _FIELD_MASK]),
            tuple(values[v]
                  for v in s.set_members[(cfg >> _S_R2T) & _FIELD_MASK]),
            (cfg >> _S_INJ) & _FIELD_MASK,
            cfg >> _S_DEL,
        )

    def _intern_portable(self, portable: Tuple) -> int:
        s = self.search
        (skey, ssnap, rkey, rsnap, t2r_values, r2t_values,
         injected, delivered) = portable
        sid = s.sender_ids.get(skey)
        if sid is None:
            sid = s._guard(len(s.sender_keys))
            s.sender_ids[skey] = sid
            s.sender_keys.append(skey)
            s.sender_snaps.append(None if s.sender_fast else ssnap)
            s.on_new_sender(sid)
        rid = s.receiver_ids.get(rkey)
        if rid is None:
            rid = s._guard(len(s.receiver_keys))
            s.receiver_ids[rkey] = rid
            s.receiver_keys.append(rkey)
            s.receiver_snaps.append(None if s.receiver_fast else rsnap)
            s.on_new_receiver(rid)
        return (
            sid
            | (rid << _S_RID)
            | (s.intern_value_set(t2r_values) << _S_T2R)
            | (s.intern_value_set(r2t_values) << _S_R2T)
            | (injected << _S_INJ)
            | (delivered << _S_DEL)
        )

    def _canonical(self, cfg: int) -> Tuple:
        """Snapshot-free canonical form, the cross-shard tiebreaker.

        Representative snapshots vary with the partition (whichever
        path reaches a state first donates its snapshot), so they are
        excluded; everything else is content.
        """
        s = self.search
        values = s.values
        return (
            s.sender_keys[cfg & _FIELD_MASK],
            s.receiver_keys[(cfg >> _S_RID) & _FIELD_MASK],
            tuple(sorted(
                (values[v]
                 for v in s.set_members[(cfg >> _S_T2R) & _FIELD_MASK]),
                key=repr)),
            tuple(sorted(
                (values[v]
                 for v in s.set_members[(cfg >> _S_R2T) & _FIELD_MASK]),
                key=repr)),
            (cfg >> _S_INJ) & _FIELD_MASK,
            cfg >> _S_DEL,
        )

    def _hit_digest(self, cfg: int) -> int:
        if self.search.track_digests:
            return self._config_digest(cfg)
        return portable_digest(self._portable(cfg))

    # -- rounds --------------------------------------------------------
    def adopt(self, inbound: List[Tuple], level: int) -> Dict[str, Any]:
        """Fold routed configurations in, then scan the new frontier.

        The adopted frontier is exactly the set of configurations
        discovered at this BFS level (own expansion plus inbound), so
        scanning it here tests every reachable configuration exactly
        once, at any shard count.
        """
        frontier = self.pending
        self.pending = []
        seen = self.seen
        multi = self.num_shards > 1
        track = self.track_parents
        level_parents = self.level_parents
        for portable, meta in inbound:
            cfg = self._intern_portable(portable)
            if multi and self._config_digest(cfg) % self.num_shards \
                    != self.index:
                # Not ours (initial seeding broadcasts to everyone).
                continue
            if cfg in seen:
                self.dup_skipped += 1
                if track:
                    old = level_parents.get(cfg)
                    if old is not None and meta is not None \
                            and meta[:3] < old[:3]:
                        level_parents[cfg] = meta
            else:
                seen.add(cfg)
                frontier.append(cfg)
                if track:
                    level_parents[cfg] = meta
        self.frontier = frontier
        if track and level_parents:
            parents = self.parents
            by_digest = self.by_digest
            for cfg, meta in level_parents.items():
                parents[cfg] = meta
                by_digest[self._config_digest(cfg)] = cfg
            level_parents.clear()
        if self.level_log is not None:
            self.level_log.append(level, frontier)
        self.scanned += len(frontier)
        hits = self.scan(frontier)
        if hits:
            self.hits_found += len(hits)
        return {
            "size": len(frontier),
            "hits": [
                (self._hit_digest(cfg), self._canonical(cfg)) for cfg in hits
            ],
        }

    def expand(self) -> Dict[str, Any]:
        """Expand the frontier; same kernel as the base shard, plus
        capacity pruning, delivered-count folding and parent-pointer
        proposals."""
        search = self.search
        seen = self.seen
        pending = self.pending
        num_shards = self.num_shards
        multi = num_shards > 1
        max_messages = self.max_messages
        mask = _FIELD_MASK
        del_cap = self.del_cap
        capacity = self.capacity
        track = self.track_parents
        level_parents = self.level_parents
        alphabet = search.alphabet
        values = search.values
        value_dg = search.value_dg
        set_members = search.set_members
        # succ -> min-rank parent meta; portables are built at ship time
        outbox: List[Dict[int, Optional[Tuple]]] = [
            {} for _ in range(num_shards)
        ]
        mark_sid = self.visited_sids.add
        mark_rid = self.visited_rids.add
        inject_memo = self.inject_memo
        output_memo = self.output_memo
        deliver_memo = self.deliver_memo
        ack_memo = self.ack_memo
        dup_skipped = 0
        forwarded = 0
        pruned = 0

        def route(successor: int, meta: Optional[Tuple]) -> None:
            nonlocal dup_skipped, forwarded, pruned
            if capacity is not None and (
                len(set_members[(successor >> _S_T2R) & mask]) > capacity
                or len(set_members[(successor >> _S_R2T) & mask]) > capacity
            ):
                pruned += 1
                return
            if multi:
                dest = self._config_digest(successor) % num_shards
                if dest != self.index:
                    box = outbox[dest]
                    old = box.get(successor, _MISSING)
                    if old is _MISSING:
                        box[successor] = meta
                        forwarded += 1
                    else:
                        dup_skipped += 1
                        if track and old is not None and meta is not None \
                                and meta[:3] < old[:3]:
                            box[successor] = meta
                    return
            if successor in seen:
                dup_skipped += 1
                if track:
                    old = level_parents.get(successor)
                    if old is not None and meta is not None \
                            and meta[:3] < old[:3]:
                        level_parents[successor] = meta
            else:
                seen.add(successor)
                pending.append(successor)
                if track:
                    level_parents[successor] = meta

        for cfg in self.frontier:
            sid = cfg & mask
            rid = (cfg >> _S_RID) & mask
            t2r = (cfg >> _S_T2R) & mask
            r2t = (cfg >> _S_R2T) & mask
            mark_sid(sid)
            mark_rid(rid)
            pdigest = self._config_digest(cfg) if track else 0
            # The four move classes, in the serial kernel's order.  The
            # injection count must be masked here: the delivered field
            # sits above it in the packing.
            if ((cfg >> _S_INJ) & mask) < max_messages:
                deltas = inject_memo.get(sid)
                if deltas is None:
                    deltas = search.build_inject_deltas(sid)
                    inject_memo[sid] = deltas
                for index, delta in enumerate(deltas):
                    route(
                        cfg + delta,
                        (pdigest, _MOVE_INJECT, index,
                         ("inject", alphabet[index])) if track else None,
                    )
            key = sid | (t2r << _FIELD_BITS)
            delta = output_memo.get(key, _MISSING)
            if delta is _MISSING:
                delta = search.build_output_delta(sid, t2r)
                output_memo[key] = delta
            if delta is not None:
                if track:
                    sent_vid = search.out_memo[sid][1]
                    meta = (pdigest, _MOVE_OUTPUT, 0,
                            ("output", values[sent_vid]))
                else:
                    meta = None
                route(cfg + delta, meta)
            if t2r:
                key = rid | (t2r << _FIELD_BITS) | (r2t << (2 * _FIELD_BITS))
                entries = deliver_memo.get(key)
                if entries is None:
                    entries = search.build_deliver_entries(rid, t2r, r2t)
                    deliver_memo[key] = entries
                d = cfg >> _S_DEL
                for delta, dcount, vid in entries:
                    if del_cap:
                        nd = d + dcount
                        if nd > del_cap:
                            nd = del_cap
                        successor = cfg + delta + ((nd - d) << _S_DEL)
                    else:
                        successor = cfg + delta
                    route(
                        successor,
                        (pdigest, _MOVE_DELIVER, value_dg[vid],
                         ("deliver", values[vid])) if track else None,
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
                    route(
                        cfg + delta,
                        (pdigest, _MOVE_ACK, value_dg[vid],
                         ("ack", values[vid])) if track else None,
                    )

        expanded = len(self.frontier)
        self.visited += expanded
        self.dup_skipped += dup_skipped
        self.forwarded += forwarded
        self.pruned += pruned
        self.frontier = []
        return {
            "expanded": expanded,
            "outbox": [
                [(self._portable(succ), meta) for succ, meta in box.items()]
                for box in outbox
            ],
            "own_next": len(pending),
        }

    def run_levels_check(self, max_configurations: int,
                         checkpoint_every: int, save,
                         base_level: int) -> Dict[str, Any]:
        """Single-shard driver: many levels without round barriers.

        The checker's analogue of
        :meth:`_ExplorationShard.run_levels` -- on one shard with no
        parent tracking there is nothing to synchronise, so paying a
        coordinator round (plus a routing closure per successor) per
        BFS level only slows the search down.  Every barrier --
        property scan, budget truncation, checkpoint cadence, hit
        stop -- happens at exactly the level boundaries of the
        coordinator loop, so verdicts, counterexamples, checkpoints
        and stats are identical.

        The entry frontier must already be adopted (and therefore
        scanned) by :meth:`adopt`; the caller handles a hit there
        without entering this loop.

        Args:
            max_configurations: visit budget (level-closure).
            checkpoint_every: cadence in levels; meaningful only with
                ``save``.
            save: ``save(session_level, is_complete)`` callback,
                invoked at barriers with the shard counters flushed
                and ``self.frontier`` staged; ``None`` disables.
            base_level: absolute level of the entry frontier (for the
                disk level log; checkpoint levels are the caller's).
        """
        search = self.search
        seen = self.seen
        queue = list(self.frontier)
        self.frontier = []
        mask = _FIELD_MASK
        max_messages = self.max_messages
        del_cap = self.del_cap
        capacity = self.capacity
        scan = self.scan
        level_log = self.level_log
        set_members = search.set_members
        seen_add = seen.add
        mark_sid = self.visited_sids.add
        mark_rid = self.visited_rids.add
        inject_memo = self.inject_memo
        output_memo = self.output_memo
        deliver_memo = self.deliver_memo
        ack_memo = self.ack_memo
        inject_get = inject_memo.get
        output_get = output_memo.get
        deliver_get = deliver_memo.get
        ack_get = ack_memo.get
        visited = self.visited
        dup_skipped = 0
        pruned = 0
        level = 0
        truncated = False
        complete = False
        hit_reports: List[Tuple[int, Tuple]] = []

        def barrier_save(is_complete: bool) -> None:
            nonlocal dup_skipped, pruned
            self.visited = visited
            self.dup_skipped += dup_skipped
            self.pruned += pruned
            dup_skipped = 0
            pruned = 0
            self.frontier = list(queue)
            save(level, is_complete)
            self.frontier = []

        try:
            while True:
                if not queue:
                    complete = True
                    if save is not None:
                        barrier_save(True)
                    break
                if visited >= max_configurations:
                    truncated = True
                    if save is not None:
                        barrier_save(False)
                    break
                if (
                    save is not None
                    and level > 0
                    and level % checkpoint_every == 0
                ):
                    barrier_save(False)
                next_queue: List[int] = []
                next_append = next_queue.append
                for cfg in queue:
                    visited += 1
                    sid = cfg & mask
                    rid = (cfg >> _S_RID) & mask
                    t2r = (cfg >> _S_T2R) & mask
                    r2t = (cfg >> _S_R2T) & mask
                    mark_sid(sid)
                    mark_rid(rid)
                    # The four move classes, in the serial kernel's
                    # order.  Injection counts are masked: the
                    # delivered field sits above them in the packing.
                    if ((cfg >> _S_INJ) & mask) < max_messages:
                        deltas = inject_get(sid)
                        if deltas is None:
                            deltas = search.build_inject_deltas(sid)
                            inject_memo[sid] = deltas
                        for delta in deltas:
                            successor = cfg + delta
                            if successor in seen:
                                dup_skipped += 1
                            elif capacity is not None and (
                                len(set_members[(successor >> _S_T2R)
                                                & mask]) > capacity
                                or len(set_members[(successor >> _S_R2T)
                                                   & mask]) > capacity
                            ):
                                pruned += 1
                            else:
                                seen_add(successor)
                                next_append(successor)
                    key = sid | (t2r << _FIELD_BITS)
                    delta = output_get(key, _MISSING)
                    if delta is _MISSING:
                        delta = search.build_output_delta(sid, t2r)
                        output_memo[key] = delta
                    if delta is not None:
                        successor = cfg + delta
                        if successor in seen:
                            dup_skipped += 1
                        elif capacity is not None and (
                            len(set_members[(successor >> _S_T2R)
                                            & mask]) > capacity
                            or len(set_members[(successor >> _S_R2T)
                                               & mask]) > capacity
                        ):
                            pruned += 1
                        else:
                            seen_add(successor)
                            next_append(successor)
                    if t2r:
                        key = (
                            rid | (t2r << _FIELD_BITS)
                            | (r2t << (2 * _FIELD_BITS))
                        )
                        entries = deliver_get(key)
                        if entries is None:
                            entries = search.build_deliver_entries(
                                rid, t2r, r2t
                            )
                            deliver_memo[key] = entries
                        d = cfg >> _S_DEL
                        for entry_delta, dcount, _vid in entries:
                            if del_cap:
                                nd = d + dcount
                                if nd > del_cap:
                                    nd = del_cap
                                successor = (
                                    cfg + entry_delta + ((nd - d) << _S_DEL)
                                )
                            else:
                                successor = cfg + entry_delta
                            if successor in seen:
                                dup_skipped += 1
                            elif capacity is not None and (
                                len(set_members[(successor >> _S_T2R)
                                                & mask]) > capacity
                                or len(set_members[(successor >> _S_R2T)
                                                   & mask]) > capacity
                            ):
                                pruned += 1
                            else:
                                seen_add(successor)
                                next_append(successor)
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
                            elif capacity is not None and (
                                len(set_members[(successor >> _S_T2R)
                                                & mask]) > capacity
                                or len(set_members[(successor >> _S_R2T)
                                                   & mask]) > capacity
                            ):
                                pruned += 1
                            else:
                                seen_add(successor)
                                next_append(successor)
                level += 1
                queue = next_queue
                # The adopt barrier of the new level: log, then scan.
                if level_log is not None:
                    level_log.append(base_level + level, queue)
                self.scanned += len(queue)
                hits = scan(queue)
                if hits:
                    self.hits_found += len(hits)
                    hit_reports = [
                        (self._hit_digest(cfg), self._canonical(cfg))
                        for cfg in hits
                    ]
                    # Stage the hit frontier, exactly as the
                    # coordinator's hit-barrier checkpoint does: a
                    # resumed run re-adopts and re-scans it.
                    if save is not None:
                        barrier_save(False)
                    break
        except ExplorationCapacityError as exc:
            # Flush progress so the caller's partial accounting (and
            # the annotated error) see how far the loop got.
            self.visited = visited
            self.dup_skipped += dup_skipped
            self.pruned += pruned
            if exc.levels_completed is None:
                exc.levels_completed = base_level + level
            if exc.configurations_seen is None:
                exc.configurations_seen = visited
            raise

        self.visited = visited
        self.dup_skipped += dup_skipped
        self.pruned += pruned
        self.frontier = queue
        return {
            "levels": level,
            "visited": visited,
            "truncated": truncated,
            "complete": complete,
            "hits": hit_reports,
        }

    # -- path reconstruction -------------------------------------------
    def resolve(self, digest: int) -> Dict[str, Any]:
        cfg = self.by_digest.get(digest)
        if cfg is None:
            return {"found": False}
        meta = self.parents.get(cfg)
        return {
            "found": True,
            "portable": self._portable(cfg),
            "parent_digest": None if meta is None else meta[0],
            "label": None if meta is None else meta[3],
        }

    # -- checkpointing -------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        dump = super().snapshot()
        dump["parents"] = dict(self.parents)
        dump["by_digest"] = dict(self.by_digest)
        dump["pruned"] = self.pruned
        dump["hits_found"] = self.hits_found
        dump["scanned"] = self.scanned
        return dump

    def restore(self, dump: Dict[str, Any]) -> bool:
        super().restore(dump)
        self.search.rcv_dcount = {}
        if self.store_kind == "disk":
            # The checkpoint materialises the full seen-set; rebuild a
            # fresh disk store from it (store directories are scratch
            # space, not caches -- see repro.checker.store).
            self._attach_disk_store(seed=self.seen)
        self.parents = dict(dump.get("parents", {}))
        self.by_digest = dict(dump.get("by_digest", {}))
        self.level_parents = {}
        self.pruned = dump.get("pruned", 0)
        self.hits_found = dump.get("hits_found", 0)
        self.scanned = dump.get("scanned", 0)
        return True

    # -- results -------------------------------------------------------
    def finish_check(self) -> Dict[str, Any]:
        s = self.search
        if self.level_log is not None:
            self.level_log.flush()
        if isinstance(self.seen, DiskVisitedStore):
            self.seen.flush()
            store_stats = self.seen.stats()
        else:
            store_stats = {
                "backend": "memory",
                "configurations": len(self.seen),
            }
        return {
            "visited": self.visited,
            "seen": len(self.seen),
            "dup_skipped": self.dup_skipped,
            "forwarded": self.forwarded,
            "pruned": self.pruned,
            "scanned": self.scanned,
            "hits_found": self.hits_found,
            "sender_states": len(self.visited_sids),
            "receiver_states": len(self.visited_rids),
            "memo_hits": s.memo_hits,
            "memo_misses": s.memo_misses,
            "interned_sender_states": len(s.sender_keys),
            "interned_receiver_states": len(s.receiver_keys),
            "interned_packet_values": len(s.values),
            "interned_value_sets": len(s.set_members),
            "store": store_stats,
        }


def _checker_shard_factory(index: int, num_shards: int, *, sender, receiver,
                           alphabet, max_messages, options):
    """Child-side construction of a checker shard (module level so the
    process backend can pickle it)."""
    shard = _CheckerShard(
        index, num_shards, sender, receiver, alphabet, max_messages, options
    )
    return shard.handle


# ----------------------------------------------------------------------
# Checkpoint identity
# ----------------------------------------------------------------------

def checker_checkpoint_key(sender: IOAutomaton, receiver: IOAutomaton,
                           alphabet: List[Hashable], max_messages: int,
                           num_shards: int, backend: str, prop_spec: str,
                           track_parents: bool, del_cap: int,
                           capacity: Optional[int], store: str) -> str:
    """Content key of a checker run: everything that shapes the search
    except the visit budget (budgets stay incremental, as for the
    exploration checkpoints)."""
    import hashlib

    from repro.runtime.cache import code_version

    material = (
        CHECKER_CHECKPOINT_FORMAT,
        KERNEL_VERSION,
        code_version(),
        type(sender).__module__, type(sender).__qualname__,
        type(receiver).__module__, type(receiver).__qualname__,
        sender.protocol_state(), receiver.protocol_state(),
        tuple(alphabet), max_messages, num_shards, backend,
        prop_spec, track_parents, del_cap, capacity, store,
    )
    blob = pickle.dumps(_canon(material), protocol=4)
    return hashlib.sha256(blob).hexdigest()[:32]


def _default_checker_dir() -> str:
    from repro.runtime.cache import default_cache_dir

    return os.path.join(default_cache_dir(), "checker")


# ----------------------------------------------------------------------
# The search driver
# ----------------------------------------------------------------------

def _run_search(
    sender: IOAutomaton,
    receiver: IOAutomaton,
    alphabet: List[Hashable],
    prop: Property,
    *,
    max_messages: int,
    max_configurations: int,
    workers: int,
    use_processes: Optional[bool],
    track_parents: bool,
    del_cap: int,
    capacity: Optional[int],
    store: str,
    store_dir: Optional[str],
    checkpoint_every: int,
    checkpoint_dir: Optional[str],
    resume: bool,
) -> Dict[str, Any]:
    """One complete level-synchronous hit-hunting search.

    Returns a dict with the verdict ingredients: ``complete`` /
    ``truncated`` flags, the canonical ``target`` (minimum
    ``(digest, canonical)`` over the hit barrier) or ``None``, the
    reconstructed ``path`` when ``track_parents``, per-shard
    ``finishes``, and engine bookkeeping.  Raises
    :class:`ExplorationCapacityError` (annotated with partial
    progress) when an intern table overflows.
    """
    started = time.perf_counter()

    cpus = os.cpu_count() or 1
    picklable = True
    if use_processes or (use_processes is None and workers >= 2
                         and cpus >= 2):
        try:
            pickle.dumps((sender, receiver, alphabet, prop))
        except Exception:
            picklable = False
    if use_processes is None:
        use_procs = workers >= 2 and cpus >= 2 and picklable
    elif use_processes:
        if not picklable:
            raise ValueError(
                "use_processes=True requires picklable automata, alphabet "
                "and property"
            )
        use_procs = True
    else:
        use_procs = False
    num_shards = max(1, workers) if use_procs else 1
    backend = "process" if use_procs else "in-process"

    key = checker_checkpoint_key(
        sender, receiver, alphabet, max_messages, num_shards, backend,
        prop.spec(), track_parents, del_cap, capacity, store,
    )
    if store == "disk" and store_dir is None:
        store_dir = os.path.join(_default_checker_dir(), "store", key)

    checkpointing = checkpoint_every > 0 or checkpoint_dir is not None
    if checkpointing:
        if checkpoint_every <= 0:
            checkpoint_every = 16
        if checkpoint_dir is None:
            checkpoint_dir = _default_checker_dir()
        ckpt_path = checkpoint_path(checkpoint_dir, key)
    else:
        ckpt_path = ""

    state: Optional[Dict[str, Any]] = None
    resumed_from = None
    if checkpointing and resume and os.path.exists(ckpt_path):
        state = _load_checkpoint(
            ckpt_path, key, num_shards, fmt=CHECKER_CHECKPOINT_FORMAT
        )
        if state is not None:
            resumed_from = {
                "level": state["level"],
                "visited": state["visited"],
                "complete": state["complete"],
            }

    options = {
        "prop": prop,
        "track_parents": track_parents,
        "del_cap": del_cap,
        "capacity": capacity,
        "store": store,
        "store_dir": store_dir,
    }

    pool = None
    if use_procs:
        factory = functools.partial(
            _checker_shard_factory,
            sender=sender,
            receiver=receiver,
            alphabet=alphabet,
            max_messages=max_messages,
            options=options,
        )
        from repro.runtime.bsp import ShardedPool

        pool = ShardedPool(num_shards, factory)

        def request_all(payloads: List[Tuple]) -> List[Any]:
            return pool.request_all(payloads)

        def request_one(shard_index: int, payload: Tuple) -> Any:
            return pool.request(shard_index, payload)
    else:
        shard = _CheckerShard(
            0, 1, sender, receiver, alphabet, max_messages, options
        )

        def request_all(payloads: List[Tuple]) -> List[Any]:
            return [shard.handle(payloads[0])]

        def request_one(shard_index: int, payload: Tuple) -> Any:
            return shard.handle(payload)

    checkpoints_written = 0
    level = 0
    visited_total = 0
    try:
        try:
            if state is not None:
                request_all([("restore", dump) for dump in state["dumps"]])
                level = state["level"]
                visited_total = state["visited"]
                inbound: List[List[Tuple]] = [[] for _ in range(num_shards)]
            else:
                seed = (
                    sender.protocol_state(), sender.snapshot(),
                    receiver.protocol_state(), receiver.snapshot(),
                    (), (), 0, 0,
                )
                # Broadcast the seed; each shard adopts it only if owner.
                inbound = [[(seed, None)] for _ in range(num_shards)]
            session_base = visited_total

            complete = False
            truncated = False
            levels_this_session = 0
            hit_reports: List[Tuple[int, Tuple]] = []

            def write_checkpoint(is_complete: bool) -> None:
                nonlocal checkpoints_written
                dumps = request_all([("snapshot",)] * num_shards)
                _save_checkpoint(ckpt_path, {
                    "format": CHECKER_CHECKPOINT_FORMAT,
                    "key": key,
                    "num_shards": num_shards,
                    "backend": backend,
                    "level": level,
                    "visited": visited_total,
                    "complete": is_complete,
                    "dumps": dumps,
                })
                checkpoints_written += 1

            if not use_procs and not track_parents:
                # Single shard without parent tracking: skip per-level
                # coordinator rounds (mirrors the exploration engine's
                # run_levels fast path; barriers are identical).
                base_level = level
                response = shard.adopt(inbound[0], level)
                hit_reports.extend(response["hits"])
                if hit_reports:
                    # The seed/restored frontier already hits.
                    if checkpointing:
                        write_checkpoint(False)
                else:
                    save = None
                    if checkpointing:
                        def save(session_level: int,
                                 is_complete: bool) -> None:
                            nonlocal checkpoints_written
                            _save_checkpoint(ckpt_path, {
                                "format": CHECKER_CHECKPOINT_FORMAT,
                                "key": key,
                                "num_shards": num_shards,
                                "backend": backend,
                                "level": base_level + session_level,
                                "visited": shard.visited,
                                "complete": is_complete,
                                "dumps": [shard.snapshot()],
                            })
                            checkpoints_written += 1

                    stats = shard.run_levels_check(
                        max_configurations, checkpoint_every, save,
                        base_level,
                    )
                    complete = stats["complete"]
                    truncated = stats["truncated"]
                    visited_total = stats["visited"]
                    levels_this_session = stats["levels"]
                    level = base_level + levels_this_session
                    hit_reports.extend(stats["hits"])
                rounds_done = True
            else:
                rounds_done = False

            while not rounds_done:
                responses = request_all([
                    ("adopt", inbound[i], level) for i in range(num_shards)
                ])
                inbound = [[] for _ in range(num_shards)]
                for response in responses:
                    hit_reports.extend(response["hits"])
                if hit_reports:
                    # Stop at the first hit barrier.  The checkpoint
                    # stages the hit frontier, so a resumed run
                    # re-adopts and re-scans it -- the hit (and the
                    # verdict) reproduce.
                    if checkpointing:
                        write_checkpoint(False)
                    break
                if sum(r["size"] for r in responses) == 0:
                    complete = True
                    if checkpointing:
                        write_checkpoint(True)
                    break
                if visited_total >= max_configurations:
                    truncated = True
                    if checkpointing:
                        write_checkpoint(False)
                    break
                if (
                    checkpointing
                    and levels_this_session > 0
                    and levels_this_session % checkpoint_every == 0
                ):
                    write_checkpoint(False)
                responses = request_all([("expand",)] * num_shards)
                for response in responses:
                    visited_total += response["expanded"]
                    for dest, batch in enumerate(response["outbox"]):
                        if batch:
                            inbound[dest].extend(batch)
                level += 1
                levels_this_session += 1

            target = None
            path = None
            if hit_reports:
                # Min digest selects the canonical target; repr (pure
                # content, unlike pickle's identity-sensitive memo)
                # breaks the astronomically unlikely digest tie.
                target = min(
                    hit_reports,
                    key=lambda item: (item[0], repr(item[1])),
                )
                if track_parents:
                    path = _resolve_path(request_one, num_shards, target[0])

            finishes = request_all([("finish_check",)] * num_shards)
        except ExplorationCapacityError as exc:
            # In-process shard overflow: annotate with partial progress
            # (the tight level loop annotates more precisely itself).
            if exc.levels_completed is None:
                exc.levels_completed = level
            if exc.configurations_seen is None:
                exc.configurations_seen = visited_total
            raise
        except Exception as exc:
            # Process-backend overflow arrives as a ShardWorkerError
            # carrying the original type name in its message.
            from repro.runtime.bsp import ShardWorkerError

            if isinstance(exc, ShardWorkerError) \
                    and "ExplorationCapacityError" in str(exc):
                raise ExplorationCapacityError(
                    str(exc),
                    levels_completed=level,
                    configurations_seen=visited_total,
                ) from exc
            raise
    finally:
        if pool is not None:
            pool.close()

    elapsed = time.perf_counter() - started
    return {
        "complete": complete,
        "truncated": truncated,
        "level": level,
        "visited": visited_total,
        "session_visited": visited_total - session_base,
        "hit_reports": hit_reports,
        "target": target,
        "path": path,
        "finishes": finishes,
        "elapsed_s": round(elapsed, 6),
        "engine": {
            "name": "checker-level-sync",
            "backend": backend,
            "workers_requested": workers,
            "shards": num_shards,
            "cpus": cpus,
            "picklable": picklable,
            "levels": level,
            "levels_this_session": levels_this_session,
            "store": store,
            "track_parents": track_parents,
            "checkpointing": checkpointing,
            "checkpoints_written": checkpoints_written,
            "resumed_from": resumed_from,
        },
    }


def _resolve_path(request_one: Callable[[int, Tuple], Any], num_shards: int,
                  target_digest: int) -> List[TraceStep]:
    """Walk parent pointers from the target back to the seed.

    Ownership is by ``digest % num_shards`` -- the routing rule -- so
    every configuration on the path is resolved by the single shard
    that discovered it.
    """
    steps: List[TraceStep] = []
    digest = target_digest
    for _ in range(1_000_000):
        owner = digest % num_shards
        response = request_one(owner, ("resolve", digest))
        if not response["found"]:
            raise RuntimeError(
                f"path reconstruction lost configuration digest {digest:#x} "
                f"(owner shard {owner}); parent pointers are inconsistent"
            )
        steps.append(TraceStep(
            label=response["label"], portable=response["portable"]
        ))
        if response["parent_digest"] is None:
            break
        digest = response["parent_digest"]
    else:
        raise RuntimeError("path reconstruction exceeded 1,000,000 steps")
    steps.reverse()
    return steps


# ----------------------------------------------------------------------
# The public entry point
# ----------------------------------------------------------------------

def check_protocol(
    sender: IOAutomaton,
    receiver: IOAutomaton,
    message_alphabet: Iterable[Hashable],
    prop,
    *,
    max_messages: int = 2,
    max_configurations: int = 200_000,
    workers: int = 1,
    use_processes: Optional[bool] = None,
    trace: str = "auto",
    replay: bool = True,
    store: str = "memory",
    store_dir: Optional[str] = None,
    capacity: Optional[int] = None,
    checkpoint_every: int = 0,
    checkpoint_dir: Optional[str] = None,
    resume: bool = True,
    engine: str = "auto",
) -> CheckResult:
    """Bounded model check of one property against one station pair.

    Args:
        sender: the transmitting-station automaton ``A^t``.
        receiver: the receiving-station automaton ``A^r``.
        message_alphabet: message values the environment may submit.
        prop: a :class:`~repro.checker.properties.Property` instance or
            a stock spec string (``"type-ok"``, ``"header-bound=4"``,
            ``"dl1-forgery"``).
        max_messages: injection budget along any explored path.
        max_configurations: visit budget; exceeding it yields the
            ``budget-exhausted`` verdict (with partial-progress stats).
        workers: shard count (``>= 2`` with a multi-core host runs one
            process per shard; see ``use_processes``).
        use_processes: force (``True``) or forbid (``False``) the
            process backend; default auto-detects like the exploration
            engine.
        trace: counterexample reconstruction mode -- ``"auto"``
            (default: re-run with parent tracking only on a hit),
            ``"inline"`` (track parents during the main search; they
            ride the checkpoints), or ``"off"`` (verdict only).
        replay: re-execute the counterexample through the concrete
            :class:`~repro.datalink.system.DataLinkSystem` pipeline and
            attach the spec-checked execution.
        store: visited-set backend -- ``"memory"`` or ``"disk"``
            (see :mod:`repro.checker.store`).
        store_dir: disk-store directory (default under
            ``<cache>/checker/store/<key>``).
        capacity: optional channel value-set bound; successors whose
            per-direction set would exceed it are pruned (the
            bounding discipline for unbounded-header protocols).
        checkpoint_every: checkpoint cadence in levels; ``0`` disables
            unless ``checkpoint_dir`` is given.
        checkpoint_dir: checkpoint directory (default
            ``<cache>/checker``).
        resume: continue from a matching checkpoint.
        engine: BFS tier, one of
            :data:`~repro.ioa.exploration.BFS_ENGINES` (validated by
            :func:`~repro.ioa.exploration_parallel.resolve_engine_tier`).

    Returns:
        A :class:`~repro.checker.result.CheckResult`; verdicts and
        counterexample traces are identical for any worker count,
        backend, store, and across checkpoint resume.
    """
    if isinstance(prop, str):
        prop = make_property(prop)
    alphabet: List[Hashable] = list(message_alphabet)
    if trace not in ("auto", "inline", "off"):
        raise ValueError(f"trace must be auto/inline/off, not {trace!r}")
    if store not in ("memory", "disk"):
        raise ValueError(f"store must be memory/disk, not {store!r}")
    del_cap = max_messages + 1 if prop.needs_delivered else 0
    resolve_engine_tier(engine)

    started = time.perf_counter()
    options = {
        "property": prop.spec(),
        "kind": prop.kind,
        "max_messages": max_messages,
        "max_configurations": max_configurations,
        "workers": workers,
        "trace": trace,
        "store": store,
        "capacity": capacity,
        "engine": engine,
    }

    # The in-process search uses the station objects as transition
    # scratch space and leaves them in arbitrary states; every phase
    # (and the final replay) needs the pristine originals, so each
    # search gets its own clones.
    try:
        outcome = _run_search(
            sender.clone(), receiver.clone(), alphabet, prop,
            max_messages=max_messages,
            max_configurations=max_configurations,
            workers=workers,
            use_processes=use_processes,
            track_parents=(trace == "inline"),
            del_cap=del_cap,
            capacity=capacity,
            store=store,
            store_dir=store_dir,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
        )
    except ExplorationCapacityError as exc:
        return CheckResult(
            verdict="budget-exhausted",
            property_spec=prop.spec(),
            property_kind=prop.kind,
            counterexample=None,
            stats={
                "capacity_error": str(exc),
                "levels": getattr(exc, "levels_completed", None),
                "configurations": getattr(exc, "configurations_seen", None),
                "elapsed_s": round(time.perf_counter() - started, 6),
            },
            options=options,
        )

    stats = _merge_stats(outcome)

    if outcome["target"] is None:
        verdict = "holds" if outcome["complete"] else "budget-exhausted"
        return CheckResult(
            verdict=verdict,
            property_spec=prop.spec(),
            property_kind=prop.kind,
            counterexample=None,
            stats=stats,
            options=options,
        )

    target_digest = outcome["target"][0]
    steps = outcome["path"]
    if steps is None and trace == "auto":
        # Phase 2: the identical search (single in-process shard -- the
        # canonical parent selection is shard-count-invariant) with
        # parent tracking, stopping at the same hit barrier.
        second = _run_search(
            sender.clone(), receiver.clone(), alphabet, prop,
            max_messages=max_messages,
            max_configurations=max_configurations,
            workers=1,
            use_processes=False,
            track_parents=True,
            del_cap=del_cap,
            capacity=capacity,
            store="memory",
            store_dir=None,
            checkpoint_every=0,
            checkpoint_dir=None,
            resume=False,
        )
        if second["target"] is None or second["target"][0] != target_digest:
            raise RuntimeError(
                "trace reconstruction re-run selected a different "
                "counterexample target; the search is not deterministic"
            )
        steps = second["path"]
        stats["trace_search"] = {
            "elapsed_s": second["elapsed_s"],
            "visited": second["visited"],
        }

    counterexample = None
    if steps is not None:
        counterexample = Counterexample(
            steps=steps, target_digest=target_digest
        )
        if replay:
            replay_counterexample(
                counterexample, sender, receiver, delivered_cap=del_cap
            )
    stats["target_digest"] = target_digest
    stats["elapsed_s"] = round(time.perf_counter() - started, 6)
    return CheckResult(
        verdict="violated",
        property_spec=prop.spec(),
        property_kind=prop.kind,
        counterexample=counterexample,
        stats=stats,
        options=options,
    )


def _merge_stats(outcome: Dict[str, Any]) -> Dict[str, Any]:
    totals = {
        key: 0
        for key in (
            "visited", "seen", "dup_skipped", "forwarded", "pruned",
            "scanned", "hits_found", "memo_hits", "memo_misses",
            "interned_sender_states", "interned_receiver_states",
            "interned_packet_values", "interned_value_sets",
        )
    }
    stores = []
    for finish in outcome["finishes"]:
        for key in totals:
            totals[key] += finish[key]
        stores.append(finish["store"])
    return {
        "levels": outcome["level"],
        "configurations": outcome["visited"],
        "complete": outcome["complete"],
        "truncated": outcome["truncated"],
        "hits": len(outcome["hit_reports"]),
        "elapsed_s": outcome["elapsed_s"],
        "engine": outcome["engine"],
        "stores": stores,
        **totals,
    }
