"""Sharded, level-synchronous exploration with checkpoint/resume.

:func:`repro.ioa.exploration.explore_station_states` is a serial BFS.
This module runs the same abstract search as a **bulk-synchronous
parallel** computation: the configuration space is hash-partitioned
across shards, each shard *owns* the configurations whose content
digest lands in it, and the search proceeds in frontier *levels* --
all configurations at BFS depth ``d`` are expanded before any at depth
``d + 1``.

Level synchrony is what makes the parallel search exact: the set of
configurations at each BFS level is a property of the protocol alone
(successors of the previous level, minus everything already seen), so
the visited sets, state counts and packet values are **identical for
any shard count and any backend** on searches that run to completion.
Only the *order* within a level depends on the partition, and nothing
observable reads that order.

Each round is one barrier (driven through
:class:`repro.runtime.bsp.ShardedPool`):

1. **adopt** -- every shard folds the configurations routed to it in
   the previous round into its frontier, deduplicating against its
   own seen-set (the owner is the single point of deduplication for
   its configurations);
2. **expand** -- every shard expands its frontier with the same
   interned delta-memo kernel the serial path uses; successors it
   owns go straight into its next frontier, successors owned by other
   shards are encoded *portably* (interned table objects, so pickle's
   memoisation compresses a batch) and returned for routing.

Sharding is by a **stable content digest** (BLAKE2b over a canonical
pickle) of the station protocol-states and channel value-sets --
never Python's per-process-randomised ``hash`` -- so every shard
computes the same owner for the same abstract configuration.  Set
digests are commutative sums of member digests.  A digest collision
only skews load balance; it can never merge two distinct
configurations, because dedup happens on the owner's interned
encoding, not the digest.

When the host has a single CPU (or ``workers <= 1``, or the automata
don't pickle), the engine degrades to a single in-process shard: the
same level-synchronous loop and kernel without process or digest
overhead.  ``use_processes=True`` forces real worker processes (used
by the equivalence tests); the effective backend is recorded in
``result.perf["engine"]``.

Checkpoint/resume
-----------------

With checkpointing enabled, the coordinator snapshots every shard at
level barriers -- intern tables, seen-sets (plain ints), frontier --
every ``checkpoint_every`` levels, plus once at termination, whether
complete or budget-truncated.  Checkpoints live under
``<cache dir>/exploration/<key>.ckpt`` where the key hashes the
protocol, alphabet, budget-independent parameters, shard layout,
:data:`KERNEL_VERSION` and the source digest -- the same invalidation
discipline as the result cache.  Because the key excludes
``max_configurations``, a budget-capped search *resumes* where it
stopped when rerun with a larger budget: caps become incremental
budgets instead of repeated work.

Truncation is at level granularity: the search stops at the first
level barrier at or past the budget, so a truncated run may visit up
to one level more than ``max_configurations``.  Truncated results are
still deterministic for any shard count; they differ from the serial
path's exact-FIFO truncation, which stops mid-level.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import os
import pickle
import tempfile
import time
from typing import Any, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.ioa.actions import Direction
from repro.ioa.automaton import IOAutomaton
from repro.ioa.exploration import (
    BFS_ENGINES,
    _FIELD_BITS,
    _FIELD_MASK,
    _MISSING,
    _PAIR_MASK,
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
    "CHECKPOINT_FORMAT",
    "KERNEL_VERSION",
    "checkpoint_key",
    "checkpoint_path",
    "explore_station_states_parallel",
    "resolve_engine_tier",
]

CHECKPOINT_FORMAT = "repro-exploration-checkpoint/2"

#: Generation of the search kernels' statistics contract, salted into
#: every exploration and checker checkpoint key.  Checkpoints key on
#: the source digest too, so this only matters to readers that pin or
#: strip it; bump on any change to what the kernels count.
KERNEL_VERSION = "repro-kernel/3"

_DIGEST_MOD = 1 << 64

logger = logging.getLogger(__name__)

# Checkpoint container: MAGIC + 8-byte big-endian payload length +
# 16-byte blake2b digest of the payload + the pickled payload.  The
# header lets a reader distinguish a torn/corrupted file (partial
# write, disk damage) from a well-formed checkpoint it merely cannot
# use -- the former is logged and treated as a cold start.
_CKPT_MAGIC = b"RXCK1\n"
_CKPT_LEN_BYTES = 8
_CKPT_DIGEST_BYTES = 16
_CKPT_HEADER_BYTES = (
    len(_CKPT_MAGIC) + _CKPT_LEN_BYTES + _CKPT_DIGEST_BYTES
)


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


def resolve_engine_tier(engine: str, prop: Any = None,
                        track_parents: bool = False) -> str:
    """Effective BFS tier for an ``engine=`` request.

    Validates ``engine`` against :data:`BFS_ENGINES` and returns
    ``"interpreted"``, the only tier; ``prop`` and ``track_parents``
    are accepted for the checker's call sites and do not affect it.
    """
    del prop, track_parents
    if engine not in BFS_ENGINES:
        raise ValueError(
            f"engine must be one of {BFS_ENGINES}, got {engine!r}"
        )
    return "interpreted"


class _ShardSearch(_InternedSearch):
    """Interned search that also tracks content digests per id.

    Digests are maintained through the ``on_new_*`` interning hooks,
    so each distinct state/value/set is digested exactly once, and
    only when ``track_digests`` (more than one shard) -- a single
    in-process shard pays nothing.
    """

    __slots__ = ("track_digests", "sender_dg", "receiver_dg",
                 "value_dg", "set_dg")

    def __init__(self, sender, receiver, alphabet, result,
                 track_digests: bool) -> None:
        self.track_digests = track_digests
        self.sender_dg: List[int] = []
        self.receiver_dg: List[int] = []
        self.value_dg: List[int] = []
        self.set_dg: List[int] = [0]  # the empty set
        super().__init__(sender, receiver, alphabet, result)

    def on_new_sender(self, sid: int) -> None:
        if self.track_digests:
            self.sender_dg.append(_stable_digest(self.sender_keys[sid]))

    def on_new_receiver(self, rid: int) -> None:
        if self.track_digests:
            self.receiver_dg.append(_stable_digest(self.receiver_keys[rid]))

    def on_new_value(self, vid: int) -> None:
        if self.track_digests:
            self.value_dg.append(_stable_digest(self.values[vid]))

    def on_new_set(self, set_id: int) -> None:
        if self.track_digests:
            value_dg = self.value_dg
            self.set_dg.append(
                sum(value_dg[m] for m in self.set_members[set_id])
                % _DIGEST_MOD
            )

    def rebuild_digests(self) -> None:
        """Recompute every digest table after a checkpoint restore."""
        if not self.track_digests:
            return
        self.sender_dg = [_stable_digest(k) for k in self.sender_keys]
        self.receiver_dg = [_stable_digest(k) for k in self.receiver_keys]
        self.value_dg = [_stable_digest(v) for v in self.values]
        value_dg = self.value_dg
        self.set_dg = [
            sum(value_dg[m] for m in members) % _DIGEST_MOD
            for members in self.set_members
        ]

    def intern_value_set(self, values: Iterable[Hashable]) -> int:
        """Intern a set of packet values by folding extensions."""
        set_id = 0
        for value in values:
            set_id = self.extend_set(set_id, self.intern_value(value))
        return set_id


# ----------------------------------------------------------------------
# The per-shard worker
# ----------------------------------------------------------------------

class _ExplorationShard:
    """Owns one hash-partition of the configuration space.

    All mutable search state lives here -- in the child process under
    the process backend, in the coordinator's process otherwise.  The
    coordinator only ever talks to :meth:`handle`.
    """

    def __init__(self, index: int, num_shards: int, sender: IOAutomaton,
                 receiver: IOAutomaton, alphabet: List[Hashable],
                 max_messages: int) -> None:
        self.index = index
        self.num_shards = num_shards
        self.max_messages = max_messages
        self.result = ExplorationResult(
            packet_values={Direction.T2R: set(), Direction.R2T: set()}
        )
        self.search = _ShardSearch(
            sender, receiver, list(alphabet), self.result,
            track_digests=num_shards > 1,
        )
        self.seen: Set[int] = set()
        self.frontier: List[int] = []
        self.pending: List[int] = []
        self.visited_sids: Set[int] = set()
        self.visited_rids: Set[int] = set()
        self.visited = 0
        self.dup_skipped = 0
        self.forwarded = 0
        # Per-move delta memos, exactly as in the serial kernel.
        self.inject_memo: Dict[int, Tuple[int, ...]] = {}
        self.output_memo: Dict[int, Optional[int]] = {}
        self.deliver_memo: Dict[int, Tuple[int, ...]] = {}
        self.ack_memo: Dict[int, Tuple[int, ...]] = {}

    # -- protocol ------------------------------------------------------
    def handle(self, request: Tuple) -> Any:
        op = request[0]
        if op == "adopt":
            return self.adopt(request[1])
        if op == "expand":
            return self.expand()
        if op == "snapshot":
            return self.snapshot()
        if op == "restore":
            return self.restore(request[1])
        if op == "finish":
            return self.finish()
        raise ValueError(f"unknown shard request {op!r}")

    # -- config plumbing -----------------------------------------------
    def _config_digest(self, cfg: int) -> int:
        s = self.search
        return (
            s.sender_dg[cfg & _FIELD_MASK]
            + 3 * s.receiver_dg[(cfg >> _S_RID) & _FIELD_MASK]
            + 5 * s.set_dg[(cfg >> _S_T2R) & _FIELD_MASK]
            + 7 * s.set_dg[(cfg >> _S_R2T) & _FIELD_MASK]
            + 11 * (cfg >> _S_INJ)
        ) % _DIGEST_MOD

    def _portable(self, cfg: int) -> Tuple:
        """Shard-independent encoding of ``cfg``.

        Ships the interned table objects themselves (keys, snapshots,
        values); within one pickled batch, repeats collapse to pickle
        memo references.
        """
        s = self.search
        sid = cfg & _FIELD_MASK
        rid = (cfg >> _S_RID) & _FIELD_MASK
        t2r = (cfg >> _S_T2R) & _FIELD_MASK
        r2t = (cfg >> _S_R2T) & _FIELD_MASK
        values = s.values
        return (
            s.sender_keys[sid], s.sender_snaps[sid],
            s.receiver_keys[rid], s.receiver_snaps[rid],
            tuple(values[v] for v in s.set_members[t2r]),
            tuple(values[v] for v in s.set_members[r2t]),
            cfg >> _S_INJ,
        )

    def _intern_portable(self, portable: Tuple) -> int:
        s = self.search
        skey, ssnap, rkey, rsnap, t2r_values, r2t_values, injected = portable
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
        )

    # -- rounds --------------------------------------------------------
    def adopt(self, inbound: List[Tuple]) -> int:
        """Fold routed configurations in; swap in the next frontier."""
        frontier = self.pending
        self.pending = []
        seen = self.seen
        multi = self.num_shards > 1
        for portable in inbound:
            cfg = self._intern_portable(portable)
            if multi and self._config_digest(cfg) % self.num_shards \
                    != self.index:
                # Not ours (initial seeding broadcasts to everyone).
                continue
            if cfg in seen:
                self.dup_skipped += 1
            else:
                seen.add(cfg)
                frontier.append(cfg)
        self.frontier = frontier
        return len(frontier)

    def expand(self) -> Dict[str, Any]:
        """Expand the current frontier level; return routed successors."""
        search = self.search
        seen = self.seen
        pending = self.pending
        num_shards = self.num_shards
        multi = num_shards > 1
        max_messages = self.max_messages
        mask = _FIELD_MASK
        outbox: List[List[Tuple]] = [[] for _ in range(num_shards)]
        outbox_dedupe: List[Set[int]] = [set() for _ in range(num_shards)]
        mark_sid = self.visited_sids.add
        mark_rid = self.visited_rids.add
        inject_memo = self.inject_memo
        output_memo = self.output_memo
        deliver_memo = self.deliver_memo
        ack_memo = self.ack_memo
        dup_skipped = 0
        forwarded = 0

        def route(successor: int) -> None:
            nonlocal dup_skipped, forwarded
            if multi:
                dest = self._config_digest(successor) % num_shards
                if dest != self.index:
                    dedupe = outbox_dedupe[dest]
                    if successor in dedupe:
                        dup_skipped += 1
                    else:
                        dedupe.add(successor)
                        outbox[dest].append(self._portable(successor))
                        forwarded += 1
                    return
            if successor in seen:
                dup_skipped += 1
            else:
                seen.add(successor)
                pending.append(successor)

        for cfg in self.frontier:
            sid = cfg & mask
            rid = (cfg >> _S_RID) & mask
            t2r = (cfg >> _S_T2R) & mask
            r2t = (cfg >> _S_R2T) & mask
            mark_sid(sid)
            mark_rid(rid)
            # The four move classes, in the serial kernel's order.
            if (cfg >> _S_INJ) < max_messages:
                deltas = inject_memo.get(sid)
                if deltas is None:
                    deltas = search.build_inject_deltas(sid)
                    inject_memo[sid] = deltas
                for delta in deltas:
                    route(cfg + delta)
            key = sid | (t2r << _FIELD_BITS)
            delta = output_memo.get(key, _MISSING)
            if delta is _MISSING:
                delta = search.build_output_delta(sid, t2r)
                output_memo[key] = delta
            if delta is not None:
                route(cfg + delta)
            if t2r:
                key = rid | (t2r << _FIELD_BITS) | (r2t << (2 * _FIELD_BITS))
                deltas = deliver_memo.get(key)
                if deltas is None:
                    deltas = search.build_deliver_deltas(rid, t2r, r2t)
                    deliver_memo[key] = deltas
                for delta in deltas:
                    route(cfg + delta)
            if r2t:
                key = sid | (r2t << _FIELD_BITS)
                deltas = ack_memo.get(key)
                if deltas is None:
                    deltas = search.build_ack_deltas(sid, r2t)
                    ack_memo[key] = deltas
                for delta in deltas:
                    route(cfg + delta)

        expanded = len(self.frontier)
        self.visited += expanded
        self.dup_skipped += dup_skipped
        self.forwarded += forwarded
        self.frontier = []
        return {
            "expanded": expanded,
            "outbox": outbox,
            "own_next": len(pending),
        }

    def run_levels(self, max_configurations: int, checkpoint_every: int,
                   save) -> Dict[str, Any]:
        """Single-shard driver: many levels without round barriers.

        The sharded backend pays one coordinator round per BFS level;
        on near-chain searches (tens of thousands of levels of a few
        configurations each) that overhead dwarfs the expansion work.
        With one shard there is nothing to synchronise, so the
        in-process backend runs this tight loop instead -- the serial
        kernel with level-boundary bookkeeping.  Budget truncation and
        checkpoints happen at exactly the same level barriers as the
        coordinator loop, so results are identical.

        Args:
            max_configurations: visit budget (level-closure).
            checkpoint_every: cadence in levels; ``0`` disables.
            save: ``save(session_level, complete)`` callback, invoked
                at barriers with ``self.frontier``/``self.visited``
                current; ``None`` disables.
        """
        from collections import deque

        search = self.search
        seen = self.seen
        queue = deque(self.frontier)
        self.frontier = []
        mask = _FIELD_MASK
        max_messages = self.max_messages
        seen_add = seen.add
        queue_append = queue.append
        queue_popleft = queue.popleft
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
        level = 0
        truncated = False
        complete = False

        def barrier_save(is_complete: bool) -> None:
            nonlocal dup_skipped
            self.visited = visited
            self.dup_skipped += dup_skipped
            dup_skipped = 0
            self.frontier = list(queue)
            save(level, is_complete)
            self.frontier = []

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
            for _ in range(len(queue)):
                cfg = queue_popleft()
                visited += 1
                sid = cfg & mask
                rid = (cfg >> _S_RID) & mask
                t2r = (cfg >> _S_T2R) & mask
                r2t = (cfg >> _S_R2T) & mask
                mark_sid(sid)
                mark_rid(rid)
                if (cfg >> _S_INJ) < max_messages:
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
                            queue_append(successor)
                key = sid | (t2r << _FIELD_BITS)
                delta = output_get(key, _MISSING)
                if delta is _MISSING:
                    delta = search.build_output_delta(sid, t2r)
                    output_memo[key] = delta
                if delta is not None:
                    successor = cfg + delta
                    if successor in seen:
                        dup_skipped += 1
                    else:
                        seen_add(successor)
                        queue_append(successor)
                if t2r:
                    key = (
                        rid | (t2r << _FIELD_BITS)
                        | (r2t << (2 * _FIELD_BITS))
                    )
                    deltas = deliver_get(key)
                    if deltas is None:
                        deltas = search.build_deliver_deltas(rid, t2r, r2t)
                        deliver_memo[key] = deltas
                    for delta in deltas:
                        successor = cfg + delta
                        if successor in seen:
                            dup_skipped += 1
                        else:
                            seen_add(successor)
                            queue_append(successor)
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
                            queue_append(successor)
            level += 1

        self.visited = visited
        self.dup_skipped += dup_skipped
        return {
            "levels": level,
            "visited": visited,
            "truncated": truncated,
            "complete": complete,
        }

    # -- checkpointing -------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Portable dump of the shard (taken at an adopt barrier)."""
        s = self.search
        return {
            "sender_keys": list(s.sender_keys),
            "sender_snaps": list(s.sender_snaps),
            "receiver_keys": list(s.receiver_keys),
            "receiver_snaps": list(s.receiver_snaps),
            "values": list(s.values),
            "set_members": list(s.set_members),
            "packet_values": {
                direction: set(values)
                for direction, values in self.result.packet_values.items()
            },
            "seen": set(self.seen),
            "frontier": list(self.frontier),
            "visited_sids": set(self.visited_sids),
            "visited_rids": set(self.visited_rids),
            "visited": self.visited,
            "dup_skipped": self.dup_skipped,
            "forwarded": self.forwarded,
            "memo_hits": s.memo_hits,
            "memo_misses": s.memo_misses,
        }

    def restore(self, dump: Dict[str, Any]) -> bool:
        s = self.search
        s.sender_keys = list(dump["sender_keys"])
        s.sender_snaps = list(dump["sender_snaps"])
        s.sender_ids = {key: i for i, key in enumerate(s.sender_keys)}
        s.receiver_keys = list(dump["receiver_keys"])
        s.receiver_snaps = list(dump["receiver_snaps"])
        s.receiver_ids = {key: i for i, key in enumerate(s.receiver_keys)}
        s.values = list(dump["values"])
        s.value_ids = {value: i for i, value in enumerate(s.values)}
        s.value_id_by_objid = {}
        s._value_refs = []
        s.set_members = list(dump["set_members"])
        s.set_ids = {members: i for i, members in enumerate(s.set_members)}
        s.set_extend = {}
        s.ready_memo = {}
        s.msg_memo = {}
        s.out_memo = {}
        s.sender_rcv_memo = {}
        s.receiver_rcv_memo = {}
        s.memo_hits = dump["memo_hits"]
        s.memo_misses = dump["memo_misses"]
        s.rebuild_digests()
        for direction, values in dump["packet_values"].items():
            self.result.packet_values[direction] = set(values)
        s.pv_t2r = self.result.packet_values[Direction.T2R]
        s.pv_r2t = self.result.packet_values[Direction.R2T]
        self.seen = set(dump["seen"])
        # The dumped frontier was adopted but not expanded; stage it as
        # pending so the next adopt barrier swaps it back in.
        self.pending = list(dump["frontier"])
        self.frontier = []
        self.visited_sids = set(dump["visited_sids"])
        self.visited_rids = set(dump["visited_rids"])
        self.visited = dump["visited"]
        self.dup_skipped = dump["dup_skipped"]
        self.forwarded = dump["forwarded"]
        self.inject_memo = {}
        self.output_memo = {}
        self.deliver_memo = {}
        self.ack_memo = {}
        return True

    # -- results -------------------------------------------------------
    def finish(self) -> Dict[str, Any]:
        s = self.search
        sender_keys = s.sender_keys
        receiver_keys = s.receiver_keys
        mask = _FIELD_MASK
        return {
            "sender_states": {sender_keys[sid] for sid in self.visited_sids},
            "receiver_states": {
                receiver_keys[rid] for rid in self.visited_rids
            },
            # Pair identity must survive the merge.  Across shards ids
            # differ, so pairs are shipped as portable key tuples; with
            # one shard the packed id pair is already canonical and
            # avoids hashing every key tuple.
            "pairs": (
                {cfg & _PAIR_MASK for cfg in self.seen}
                if self.num_shards == 1
                else {
                    (sender_keys[cfg & mask],
                     receiver_keys[(cfg >> _S_RID) & mask])
                    for cfg in self.seen
                }
            ),
            "packet_values": self.result.packet_values,
            "visited": self.visited,
            "dup_skipped": self.dup_skipped,
            "forwarded": self.forwarded,
            "memo_hits": s.memo_hits,
            "memo_misses": s.memo_misses,
            "interned_sender_states": len(sender_keys),
            "interned_receiver_states": len(receiver_keys),
            "interned_packet_values": len(s.values),
            "interned_value_sets": len(s.set_members),
        }


def _shard_factory(index: int, num_shards: int, *, sender, receiver,
                   alphabet, max_messages):
    """Child-side construction of a shard (module-level: picklable)."""
    shard = _ExplorationShard(
        index, num_shards, sender, receiver, alphabet, max_messages
    )
    return shard.handle


# ----------------------------------------------------------------------
# Checkpoint files
# ----------------------------------------------------------------------

def checkpoint_key(sender: IOAutomaton, receiver: IOAutomaton,
                   alphabet: List[Hashable], max_messages: int,
                   num_shards: int, backend: str) -> str:
    """Content key of a checkpoint: everything that shapes the search
    except the budget (so budgets are incremental), salted with
    :data:`KERNEL_VERSION` and the source digest."""
    from repro.runtime.cache import code_version

    material = (
        CHECKPOINT_FORMAT,
        KERNEL_VERSION,
        code_version(),
        type(sender).__module__, type(sender).__qualname__,
        type(receiver).__module__, type(receiver).__qualname__,
        sender.protocol_state(), receiver.protocol_state(),
        tuple(alphabet), max_messages, num_shards, backend,
    )
    blob = pickle.dumps(_canon(material), protocol=4)
    return hashlib.sha256(blob).hexdigest()[:32]


def checkpoint_path(checkpoint_dir: str, key: str) -> str:
    return os.path.join(checkpoint_dir, f"{key}.ckpt")


def _default_checkpoint_dir() -> str:
    from repro.runtime.cache import default_cache_dir

    return os.path.join(default_cache_dir(), "exploration")


def _save_checkpoint(path: str, payload: Dict[str, Any]) -> None:
    """Atomic write: a reader never sees a torn checkpoint.

    The file is the self-validating container described at
    ``_CKPT_MAGIC``; ``os.replace`` makes the swap atomic and the
    length/digest header makes any partial or damaged file detectable
    on read.
    """
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    blob = pickle.dumps(payload, protocol=4)
    digest = hashlib.blake2b(blob, digest_size=_CKPT_DIGEST_BYTES).digest()
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_CKPT_MAGIC)
            handle.write(len(blob).to_bytes(_CKPT_LEN_BYTES, "big"))
            handle.write(digest)
            handle.write(blob)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _read_checkpoint_blob(path: str) -> Optional[bytes]:
    """Read and validate a checkpoint container.

    Returns the pickled payload bytes, or ``None`` -- with a logged
    warning -- when the file is unreadable, torn or corrupt.  Callers
    treat ``None`` as a cold start.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        logger.warning("checkpoint %s unreadable (%s); cold start",
                       path, exc)
        return None
    if len(raw) < _CKPT_HEADER_BYTES:
        logger.warning(
            "checkpoint %s truncated (%d bytes, header needs %d); "
            "cold start", path, len(raw), _CKPT_HEADER_BYTES,
        )
        return None
    if not raw.startswith(_CKPT_MAGIC):
        logger.warning(
            "checkpoint %s has no container header (old format or "
            "foreign file); cold start", path,
        )
        return None
    offset = len(_CKPT_MAGIC)
    length = int.from_bytes(raw[offset:offset + _CKPT_LEN_BYTES], "big")
    offset += _CKPT_LEN_BYTES
    digest = raw[offset:offset + _CKPT_DIGEST_BYTES]
    blob = raw[_CKPT_HEADER_BYTES:]
    if len(blob) != length:
        logger.warning(
            "checkpoint %s truncated (%d payload bytes, header claims "
            "%d); cold start", path, len(blob), length,
        )
        return None
    actual = hashlib.blake2b(blob, digest_size=_CKPT_DIGEST_BYTES).digest()
    if actual != digest:
        logger.warning(
            "checkpoint %s failed its content digest (corrupt); "
            "cold start", path,
        )
        return None
    return blob


def _load_checkpoint(path: str, key: str, num_shards: int,
                     fmt: str = CHECKPOINT_FORMAT
                     ) -> Optional[Dict[str, Any]]:
    blob = _read_checkpoint_blob(path)
    if blob is None:
        return None
    try:
        payload = pickle.loads(blob)
    except (pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError, ValueError) as exc:
        logger.warning("checkpoint %s failed to unpickle (%s); cold start",
                       path, exc)
        return None
    # A digest-valid file that simply belongs to a different search
    # (format bump, other parameters, other shard count) is not
    # corruption; skip it silently, as before.
    if not isinstance(payload, dict):
        return None
    if payload.get("format") != fmt:
        return None
    if payload.get("key") != key:
        return None
    if payload.get("num_shards") != num_shards:
        return None
    if len(payload.get("dumps", ())) != num_shards:
        return None
    return payload


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------

def explore_station_states_parallel(
    sender: IOAutomaton,
    receiver: IOAutomaton,
    message_alphabet: Iterable[Hashable],
    max_messages: int = 2,
    max_configurations: int = 200_000,
    workers: int = 2,
    use_processes: Optional[bool] = None,
    checkpoint_every: int = 0,
    checkpoint_dir: Optional[str] = None,
    resume: bool = True,
    engine: str = "auto",
) -> ExplorationResult:
    """Level-synchronous sharded exploration.

    Args:
        sender: the transmitting-station automaton ``A^t``.
        receiver: the receiving-station automaton ``A^r``.
        message_alphabet: message values the environment may submit.
        max_messages: injection budget along any explored path.
        max_configurations: visit budget, enforced at level barriers
            (a truncated run may overshoot by up to one level).
        workers: requested shard count.
        use_processes: ``True`` forces one OS process per shard,
            ``False`` forces the single in-process shard, ``None``
            (default) picks processes only when ``workers >= 2``, the
            host has more than one CPU, and the automata pickle --
            otherwise processes cannot beat the serial path.
        checkpoint_every: snapshot cadence in levels (``> 0`` enables
            checkpointing; ``checkpoint_dir`` alone enables it with a
            default cadence of 16 levels).  Termination -- complete or
            truncated -- always writes a final checkpoint when
            enabled.
        checkpoint_dir: checkpoint directory; defaults to
            ``<cache dir>/exploration``.
        resume: load a matching checkpoint before starting.
        engine: BFS tier, one of :data:`BFS_ENGINES` (see
            :func:`resolve_engine_tier`).

    Returns:
        An :class:`ExplorationResult`.  ``perf["engine"]`` records the
        backend, effective shard count, CPU count, level count and
        cross-shard traffic.  On a resumed run ``configurations`` is
        the cumulative total and ``configs_per_sec`` covers only this
        session's work.
    """
    resolve_engine_tier(engine)
    started = time.perf_counter()
    alphabet: List[Hashable] = list(message_alphabet)

    cpus = os.cpu_count() or 1
    picklable = True
    if use_processes or (use_processes is None and workers >= 2
                         and cpus >= 2):
        try:
            pickle.dumps((sender, receiver, alphabet))
        except Exception:
            picklable = False
    if use_processes is None:
        use_procs = workers >= 2 and cpus >= 2 and picklable
    elif use_processes:
        if not picklable:
            raise ValueError(
                "use_processes=True requires picklable automata and "
                "alphabet"
            )
        use_procs = True
    else:
        use_procs = False
    num_shards = max(1, workers) if use_procs else 1
    backend = "process" if use_procs else "in-process"

    checkpointing = checkpoint_every > 0 or checkpoint_dir is not None
    if checkpointing:
        if checkpoint_every <= 0:
            checkpoint_every = 16
        if checkpoint_dir is None:
            checkpoint_dir = _default_checkpoint_dir()
        key = checkpoint_key(
            sender, receiver, alphabet, max_messages, num_shards, backend
        )
        ckpt_path = checkpoint_path(checkpoint_dir, key)
    else:
        key = ""
        ckpt_path = ""

    state: Optional[Dict[str, Any]] = None
    resumed_from = None
    if checkpointing and resume and os.path.exists(ckpt_path):
        state = _load_checkpoint(ckpt_path, key, num_shards)
        if state is not None:
            resumed_from = {
                "level": state["level"],
                "visited": state["visited"],
                "complete": state["complete"],
            }

    pool = None
    if use_procs:
        factory = functools.partial(
            _shard_factory,
            sender=sender,
            receiver=receiver,
            alphabet=alphabet,
            max_messages=max_messages,
        )
        from repro.runtime.bsp import ShardedPool

        pool = ShardedPool(num_shards, factory)

        def request_all(payloads: List[Tuple]) -> List[Any]:
            return pool.request_all(payloads)
    else:
        shard = _ExplorationShard(
            0, 1, sender, receiver, alphabet, max_messages
        )

        def request_all(payloads: List[Tuple]) -> List[Any]:
            return [shard.handle(payloads[0])]

    checkpoints_written = 0
    level = 0
    visited_total = 0
    try:
        if state is not None:
            request_all([
                ("restore", dump) for dump in state["dumps"]
            ])
            level = state["level"]
            visited_total = state["visited"]
            inbound: List[List[Tuple]] = [[] for _ in range(num_shards)]
        else:
            level = 0
            visited_total = 0
            initial = (
                sender.protocol_state(), sender.snapshot(),
                receiver.protocol_state(), receiver.snapshot(),
                (), (), 0,
            )
            # Broadcast the seed; each shard adopts it only if owner.
            inbound = [[initial] for _ in range(num_shards)]
        session_base = visited_total

        complete = False
        truncated = False
        levels_this_session = 0

        if not use_procs:
            # Single shard: skip per-level coordinator rounds entirely.
            # On near-chain searches (many tiny levels) the round
            # plumbing costs more than the expansion work, so the shard
            # runs its own tight level loop; barriers (budget,
            # checkpoint cadence) are identical.
            base_level = level
            shard.adopt(inbound[0])

            save = None
            if checkpointing:
                def save(session_level: int, is_complete: bool) -> None:
                    nonlocal checkpoints_written
                    _save_checkpoint(ckpt_path, {
                        "format": CHECKPOINT_FORMAT,
                        "key": key,
                        "num_shards": num_shards,
                        "backend": backend,
                        "level": base_level + session_level,
                        "visited": shard.visited,
                        "complete": is_complete,
                        "dumps": [shard.snapshot()],
                    })
                    checkpoints_written += 1

            stats = shard.run_levels(
                max_configurations, checkpoint_every, save
            )
            complete = stats["complete"]
            truncated = stats["truncated"]
            visited_total = stats["visited"]
            levels_this_session = stats["levels"]
            level = base_level + levels_this_session
            finishes = request_all([("finish",)])
            pool_done = True
        else:
            pool_done = False

        def write_checkpoint(is_complete: bool) -> None:
            nonlocal checkpoints_written
            dumps = request_all([("snapshot",)] * num_shards)
            _save_checkpoint(ckpt_path, {
                "format": CHECKPOINT_FORMAT,
                "key": key,
                "num_shards": num_shards,
                "backend": backend,
                "level": level,
                "visited": visited_total,
                "complete": is_complete,
                "dumps": dumps,
            })
            checkpoints_written += 1

        while not pool_done:
            sizes = request_all([
                ("adopt", inbound[i]) for i in range(num_shards)
            ])
            inbound = [[] for _ in range(num_shards)]
            if sum(sizes) == 0:
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

        if not pool_done:
            finishes = request_all([("finish",)] * num_shards)
    except Exception as exc:
        from repro.runtime.bsp import ShardWorkerError

        # An intern-table overflow must not discard the search's
        # progress.  BSP workers survive handler exceptions (the error
        # is reported, the worker keeps serving), so the shards can
        # still be asked to finish; the merged partial result rides on
        # the re-raised error.
        if isinstance(exc, ExplorationCapacityError):
            message = str(exc)
        elif isinstance(exc, ShardWorkerError) \
                and "ExplorationCapacityError" in str(exc):
            message = str(exc)
        else:
            raise
        partial: Optional[ExplorationResult] = None
        configurations = visited_total
        try:
            partial_finishes = request_all([("finish",)] * num_shards)
        except Exception:
            partial_finishes = None
        if partial_finishes is not None:
            partial = ExplorationResult(
                packet_values={Direction.T2R: set(), Direction.R2T: set()}
            )
            partial_pairs: Set[Tuple] = set()
            for finish in partial_finishes:
                partial.sender_states |= finish["sender_states"]
                partial.receiver_states |= finish["receiver_states"]
                partial_pairs |= finish["pairs"]
                for direction, values in finish["packet_values"].items():
                    partial.packet_values[direction] |= values
            partial.pair_count = len(partial_pairs)
            configurations = sum(f["visited"] for f in partial_finishes)
            partial.configurations = configurations
            partial.truncated = True
        raise ExplorationCapacityError(
            message,
            partial=partial,
            levels_completed=level,
            configurations_seen=configurations,
        ) from exc
    finally:
        if pool is not None:
            pool.close()

    result = ExplorationResult(
        packet_values={Direction.T2R: set(), Direction.R2T: set()}
    )
    pairs: Set[Tuple] = set()
    memo_hits = memo_misses = dup_skipped = forwarded = 0
    interned = [0, 0, 0, 0]
    for finish in finishes:
        result.sender_states |= finish["sender_states"]
        result.receiver_states |= finish["receiver_states"]
        pairs |= finish["pairs"]
        for direction, values in finish["packet_values"].items():
            result.packet_values[direction] |= values
        memo_hits += finish["memo_hits"]
        memo_misses += finish["memo_misses"]
        dup_skipped += finish["dup_skipped"]
        forwarded += finish["forwarded"]
        interned[0] += finish["interned_sender_states"]
        interned[1] += finish["interned_receiver_states"]
        interned[2] += finish["interned_packet_values"]
        interned[3] += finish["interned_value_sets"]
    result.configurations = visited_total
    result.truncated = truncated and not complete
    result.pair_count = len(pairs)

    elapsed = time.perf_counter() - started
    session_visited = visited_total - session_base
    result.perf = {
        "elapsed_s": round(elapsed, 6),
        "configs_per_sec": configs_per_sec(session_visited, elapsed),
        "memo_hits": memo_hits,
        "memo_misses": memo_misses,
        "duplicate_successors_skipped": dup_skipped,
        "interned_sender_states": interned[0],
        "interned_receiver_states": interned[1],
        "interned_packet_values": interned[2],
        "interned_value_sets": interned[3],
        "engine": {
            "name": "level-sync-sharded",
            "backend": backend,
            "workers_requested": workers,
            "shards": num_shards,
            "cpus": cpus,
            "picklable": picklable,
            "levels": level,
            "levels_this_session": levels_this_session,
            "session_configurations": session_visited,
            "cross_shard_forwards": forwarded,
            "checkpointing": checkpointing,
            "checkpoints_written": checkpoints_written,
            "resumed_from": resumed_from,
        },
    }
    return result
