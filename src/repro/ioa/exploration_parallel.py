"""The level-synchronous BFS driver behind exploration and the checker.

Theorem 2.1's state counts (:func:`repro.ioa.exploration.explore_station_states`)
and the checker's property hunt (:func:`repro.checker.engine.check_protocol`)
are one bounded reachability search over the set-abstracted channels.
This module is that search, once: one shard class, one coordinator and
one single-shard level loop.  Exploration is a search whose property
never hits; the outputs only exploration needs -- station-state sets,
the pair count, packet values -- are read off the visited set after the
search, the way the checker reconstructs counterexample paths after it,
so a check never pays for them.

The search runs as a **bulk-synchronous parallel** computation: the
configuration space is hash-partitioned across shards, each shard
*owns* the configurations whose content digest lands in it, and the
search proceeds in frontier *levels* -- all configurations at BFS depth
``d`` are expanded before any at depth ``d + 1``.

Level synchrony is what makes the parallel search exact: the set of
configurations at each BFS level is a property of the protocol alone
(successors of the previous level, minus everything already seen), so
visited sets, state counts, packet values, verdicts and counterexamples
are **identical for any shard count and any backend** on searches that
run to completion.  Only the *order* within a level depends on the
partition, and nothing observable reads that order.

Each round is one barrier (driven through
:class:`repro.runtime.bsp.ShardedPool`):

1. **adopt** -- every shard folds the configurations routed to it in
   the previous round into its frontier, deduplicating against its
   own seen-set (the owner is the single point of deduplication for
   its configurations), then scans the new level with the property;
2. **expand** -- every shard expands its frontier with the interned
   delta-memo kernel; successors it owns go straight into its next
   frontier, successors owned by other shards are encoded *portably*
   (interned table objects, so pickle's memoisation compresses a
   batch) and returned for routing.

Sharding is by a **stable content digest** (BLAKE2b over a canonical
pickle) of the station protocol-states and channel value-sets --
never Python's per-process-randomised ``hash`` -- so every shard
computes the same owner for the same abstract configuration.  Set
digests are commutative sums of member digests.  A digest collision
only skews load balance; it can never merge two distinct
configurations, because dedup happens on the owner's interned
encoding, not the digest.

When the host has a single CPU (or ``workers <= 1``, or the automata
don't pickle), the search degrades to a single in-process shard that
runs :meth:`_Shard.run_levels`: the same levels in one tight loop,
without coordinator rounds or digests.  ``use_processes=True`` forces
real worker processes (used by the equivalence tests); the effective
backend is recorded in the ``engine`` record of the result.

Truncation
----------

The sharded search stops at the first level barrier at or past the
budget, so a truncated run may visit up to one level more than
``max_configurations``; truncated results are still deterministic for
any shard count.  The serial exploration entry instead cuts inside the
level that would overrun the budget -- it expands only that level's
first ``budget - visited`` configurations -- which is exactly the
BFS-FIFO cut: Theorem 2.1's growth tables print that count.

Checkpoint/resume
-----------------

With checkpointing enabled, the coordinator snapshots every shard at
level barriers -- intern tables, seen-sets (plain ints), frontier,
parent pointers -- every ``checkpoint_every`` levels, plus once at
termination, whether complete, budget-truncated or stopped at a hit.
Checkpoints live under ``<cache dir>/<exploration|checker>/<key>.ckpt``
where :func:`checkpoint_key` hashes the protocol, alphabet, bounds,
property, shard layout, :data:`KERNEL_VERSION` and the source digest --
the same invalidation discipline as the result cache.  Because the key
excludes ``max_configurations``, a budget-capped search *resumes* where
it stopped when rerun with a larger budget: caps become incremental
budgets instead of repeated work.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import os
import pickle
import tempfile
import time
from typing import (
    Any, Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple,
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
    "CHECKPOINT_FORMAT",
    "KERNEL_VERSION",
    "checkpoint_key",
    "checkpoint_path",
    "explore_station_states_parallel",
    "portable_digest",
    "resolve_engine_tier",
]

CHECKPOINT_FORMAT = "repro-bfs-checkpoint/3"

#: Generation of the search kernels' statistics contract, salted into
#: every checkpoint key.  Checkpoints key on the source digest too, so
#: this only matters to readers that pin or strip it; bump on any
#: change to what the kernels count.
KERNEL_VERSION = "repro-kernel/3"

#: The names :func:`resolve_engine_tier` accepts.
BFS_ENGINES = ("auto", "interpreted")

_DIGEST_MOD = 1 << 64

#: Move-class codes used in parent ranks.
_MOVE_INJECT, _MOVE_OUTPUT, _MOVE_DELIVER, _MOVE_ACK = 0, 1, 2, 3

#: The injected-count field in place, and the receiver/channel fields
#: a delivery reads, shifted down to the receiver id.
_INJ_FIELD = _FIELD_MASK << _S_INJ
_DELIVER_KEY = (1 << (3 * _FIELD_BITS)) - 1

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


def portable_digest(portable: Tuple) -> int:
    """Stable digest of a portable configuration.

    Mirrors ``_Shard._config_digest`` exactly (set digests are
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


class _ShardSearch(_InternedSearch):
    """Interned search that also keeps a content digest per id.

    Digests are maintained through the ``on_new_*`` interning hooks,
    so each distinct state/value/set is digested exactly once.  Only
    shards that route (more than one shard) or name parents (path
    reconstruction) use this class; a lone shard pays nothing.
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

    def rebuild_digests(self) -> None:
        """Recompute every digest table after a checkpoint restore."""
        self.sender_dg = [_stable_digest(k) for k in self.sender_keys]
        self.receiver_dg = [_stable_digest(k) for k in self.receiver_keys]
        self.value_dg = [_stable_digest(v) for v in self.values]
        value_dg = self.value_dg
        self.set_dg = [
            sum(value_dg[m] for m in members) % _DIGEST_MOD
            for members in self.set_members
        ]


# ----------------------------------------------------------------------
# The shard
# ----------------------------------------------------------------------

class _Shard:
    """Owns one hash-partition of the configuration space.

    All mutable search state lives here -- in the child process under
    the process backend, in the coordinator's process otherwise.  The
    coordinator talks to it through :meth:`handle`:

    * ``("adopt", inbound, level)`` -- inbound items are
      ``(portable, parent_meta)`` pairs; returns ``{"size", "hits"}``
      where hits are ``(digest, canonical)`` pairs for this level's
      property hits;
    * ``("expand",)`` -- expand the frontier, return routed successors;
    * ``("snapshot",)`` / ``("restore", dump)`` -- checkpointing;
    * ``("resolve", digest)`` -- parent-pointer lookup for path
      reconstruction;
    * ``("finish", states)`` -- search statistics, plus the exploration
      outputs when ``states`` is true.

    ``options`` carries the search's plug-ins: ``prop`` (a checker
    property, or ``None`` for exploration), ``track_parents``,
    ``del_cap`` (the saturating delivered field, ``0`` when off),
    ``capacity`` (channel value-set bound, or ``None``), ``store``
    (``"memory"`` or ``"disk"``) and ``store_dir``.
    """

    def __init__(self, index: int, num_shards: int, sender: IOAutomaton,
                 receiver: IOAutomaton, alphabet: List[Hashable],
                 max_messages: int, options: Dict[str, Any]) -> None:
        self.index = index
        self.num_shards = num_shards
        self.max_messages = max_messages
        self.track_parents = bool(options.get("track_parents"))
        self.del_cap = int(options.get("del_cap", 0))
        self.capacity: Optional[int] = options.get("capacity")
        # A delivery's successor depends on the delivered field only
        # when it is tracked, so only then does the memo key read it.
        self.deliver_mask = _DELIVER_KEY | (
            (_FIELD_MASK << (_S_DEL - _S_RID)) if self.del_cap else 0
        )
        # Digest tables route configurations between shards and name
        # parents for path reconstruction; a lone shard needs neither.
        self.track_digests = num_shards > 1 or self.track_parents
        search_class = _ShardSearch if self.track_digests else _InternedSearch
        alphabet = list(alphabet)
        self.search = search_class(sender, receiver, alphabet)
        self.scan: Optional[Callable[[List[int]], List[int]]] = None
        prop = options.get("prop")
        if prop is not None:
            from repro.checker.properties import BindContext

            self.scan = prop.bind(
                BindContext(self.search, max_messages, alphabet, self.del_cap)
            )
        self.seen: Any = set()
        self.frontier: List[int] = []
        self.pending: List[int] = []
        self.visited = 0
        self.dup_skipped = 0
        self.forwarded = 0
        self.pruned = 0
        self.hits_found = 0
        self.scanned = 0
        # Expanded sender/receiver ids and sent value ids carried over
        # from a checkpoint (see _expanded_ids).
        self.restored_ids: Tuple[Set[int], ...] = (set(), set(), set(), set())
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
        self.store_kind = options.get("store", "memory")
        self.store_dir: Optional[str] = options.get("store_dir")
        self.level_log: Any = None
        if self.store_kind == "disk":
            self._attach_disk_store(seed=None)

    def _attach_disk_store(self, seed: Optional[Iterable[int]]) -> None:
        from repro.checker.store import DiskVisitedStore, LevelLog

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
        if op == "expand":
            return self.expand()
        if op == "snapshot":
            return self.snapshot()
        if op == "restore":
            return self.restore(request[1])
        if op == "resolve":
            return self.resolve(request[1])
        if op == "finish":
            return self.finish(request[1])
        raise ValueError(f"unknown shard request {op!r}")

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
        """Shard-independent encoding of ``cfg``.

        Ships the interned table objects themselves (keys, snapshots,
        values); within one pickled batch, repeats collapse to pickle
        memo references.
        """
        s = self.search
        values = s.values
        sid = cfg & _FIELD_MASK
        rid = (cfg >> _S_RID) & _FIELD_MASK
        return (
            s.sender_keys[sid],
            s.sender_snaps[sid],
            s.receiver_keys[rid],
            s.receiver_snaps[rid],
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
        skey, _ssnap, rkey, _rsnap, t2r, r2t, injected, delivered \
            = self._portable(cfg)
        return (
            skey, rkey,
            tuple(sorted(t2r, key=repr)), tuple(sorted(r2t, key=repr)),
            injected, delivered,
        )

    def _scan(self, level: int, frontier: List[int]) -> List[Tuple]:
        """Log and scan a newly adopted level; its hit reports."""
        if self.level_log is not None:
            self.level_log.append(level, frontier)
        if self.scan is None:
            return []
        self.scanned += len(frontier)
        hits = self.scan(frontier)
        self.hits_found += len(hits)
        return [
            (
                self._config_digest(cfg) if self.track_digests
                else portable_digest(self._portable(cfg)),
                self._canonical(cfg),
            )
            for cfg in hits
        ]

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
        return {"size": len(frontier), "hits": self._scan(level, frontier)}

    def expand(self) -> Dict[str, Any]:
        """Expand the frontier level; return routed successors.

        The sharded kernel: every successor goes through ``route``,
        which prunes by capacity, ships other shards' configurations
        and proposes canonical parents.
        """
        search = self.search
        seen = self.seen
        pending = self.pending
        num_shards = self.num_shards
        multi = num_shards > 1
        mask = _FIELD_MASK
        inj_limit = self.max_messages << _S_INJ
        del_cap = self.del_cap
        deliver_mask = self.deliver_mask
        capacity = self.capacity
        track = self.track_parents
        level_parents = self.level_parents
        alphabet = search.alphabet
        values = search.values
        set_members = search.set_members
        value_dg = search.value_dg if track else None
        # succ -> min-rank parent meta; portables are built at ship time
        outbox: List[Dict[int, Optional[Tuple]]] = [
            {} for _ in range(num_shards)
        ]
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
            pdigest = self._config_digest(cfg) if track else 0
            # The four move classes, in the level loop's order.
            if (cfg & _INJ_FIELD) < inj_limit:
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
                route(
                    cfg + delta,
                    (pdigest, _MOVE_OUTPUT, 0,
                     ("output", values[search.out_memo[sid][1]]))
                    if track else None,
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
                    route(
                        cfg + delta,
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

    def run_levels(self, max_configurations: int, checkpoint_every: int,
                   save, base_level: int, exact: bool) -> Dict[str, Any]:
        """Single-shard driver: many levels without coordinator rounds.

        The sharded backend pays one coordinator round (plus a routing
        closure per successor) per BFS level; on near-chain searches
        -- tens of thousands of levels of a few configurations each --
        that overhead dwarfs the expansion work.  With one shard and no
        parent tracking there is nothing to synchronise, so this tight
        loop runs instead.  Every barrier -- property scan, budget
        truncation, checkpoint cadence, hit stop -- happens at exactly
        the level boundaries of the coordinator loop, so verdicts,
        counts and checkpoints are identical.  Capacity pruning checks
        only the set a move can grow: injections and sender deliveries
        keep both channel sets.

        The entry frontier must already be adopted (and therefore
        scanned) by :meth:`adopt`; the caller handles a hit there
        without entering this loop.

        Args:
            max_configurations: visit budget.
            checkpoint_every: cadence in levels; meaningful only with
                ``save``.
            save: ``save(session_level, is_complete)`` callback,
                invoked at barriers with the shard counters flushed
                and ``self.frontier`` staged; ``None`` disables.
            base_level: absolute level of the entry frontier (for the
                disk level log; checkpoint levels are the caller's).
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
        set_members = search.set_members
        scanning = self.scan is not None or self.level_log is not None
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
                if (
                    save is not None
                    and level > 0
                    and level % checkpoint_every == 0
                ):
                    flush(queue)
                    save(level, False)
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
                    # readiness (``ready_for_message``; automata without
                    # the attribute accept submissions at any time).
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
                    hits = self._scan(base_level + level, queue)
                    if hits:
                        break
        except ExplorationCapacityError as exc:
            # Keep the progress: the configurations after the one that
            # overflowed stay unexpanded, and the caller's partial
            # accounting reads the flushed counters.
            flush(queue[visited - level_start:] + rest + next_queue)
            if exc.levels_completed is None:
                exc.levels_completed = base_level + level
            if exc.configurations_seen is None:
                exc.configurations_seen = visited
            raise

        flush(queue)
        if save is not None:
            # Stop barriers checkpoint too; a hit frontier is staged
            # so a resumed run re-adopts and re-scans it.
            save(level, complete)
        return {
            "levels": level,
            "visited": visited,
            "truncated": truncated,
            "complete": complete,
            "hits": hits,
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
        """Portable dump of the shard (taken at a level barrier)."""
        s = self.search
        return {
            "sender_keys": list(s.sender_keys),
            "sender_snaps": list(s.sender_snaps),
            "receiver_keys": list(s.receiver_keys),
            "receiver_snaps": list(s.receiver_snaps),
            "values": list(s.values),
            "set_members": list(s.set_members),
            "seen": set(self.seen),
            "frontier": list(self.frontier),
            "visited": self.visited,
            "dup_skipped": self.dup_skipped,
            "forwarded": self.forwarded,
            "pruned": self.pruned,
            "hits_found": self.hits_found,
            "scanned": self.scanned,
            "memo_hits": s.memo_hits,
            "memo_misses": s.memo_misses,
            "parents": dict(self.parents),
            "by_digest": dict(self.by_digest),
            "expanded_ids": self._expanded_ids(),
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
        if self.track_digests:
            s.rebuild_digests()
        self.seen = set(dump["seen"])
        if self.store_kind == "disk":
            # The checkpoint materialises the full seen-set; rebuild a
            # fresh disk store from it (store directories are scratch
            # space, not caches -- see repro.checker.store).
            self._attach_disk_store(seed=self.seen)
        # The dumped frontier was adopted but not expanded; stage it as
        # pending so the next adopt barrier swaps it back in.
        self.pending = list(dump["frontier"])
        self.frontier = []
        self.visited = dump["visited"]
        self.dup_skipped = dump["dup_skipped"]
        self.forwarded = dump["forwarded"]
        self.pruned = dump["pruned"]
        self.hits_found = dump["hits_found"]
        self.scanned = dump["scanned"]
        self.parents = dict(dump["parents"])
        self.by_digest = dict(dump["by_digest"])
        self.restored_ids = dump["expanded_ids"]
        self.level_parents = {}
        self.inject_memo = {}
        self.output_memo = {}
        self.deliver_memo = {}
        self.ack_memo = {}
        return True

    # -- results -------------------------------------------------------
    def finish(self, states: bool) -> Dict[str, Any]:
        s = self.search
        if self.level_log is not None:
            self.level_log.flush()
        if self.store_kind == "disk":
            self.seen.flush()
            store_stats = self.seen.stats()
        else:
            store_stats = {
                "backend": "memory",
                "configurations": len(self.seen),
            }
        stats = {
            "visited": self.visited,
            "seen": len(self.seen),
            "dup_skipped": self.dup_skipped,
            "forwarded": self.forwarded,
            "pruned": self.pruned,
            "scanned": self.scanned,
            "hits_found": self.hits_found,
            "memo_hits": s.memo_hits,
            "memo_misses": s.memo_misses,
            "interned_sender_states": len(s.sender_keys),
            "interned_receiver_states": len(s.receiver_keys),
            "interned_packet_values": len(s.values),
            "interned_value_sets": len(s.set_members),
            "store": store_stats,
        }
        if states:
            stats.update(self._states())
        return stats

    def _expanded_ids(self) -> Tuple[Set[int], ...]:
        """Ids the expanded configurations touched, read off the memos.

        Every expanded configuration looks up its sender's output, so
        ``out_memo`` holds exactly the expanded sender ids and, in its
        transitions, every value sent t->r.  The receiver moves only
        on deliveries, which need a nonempty t->r set; so the expanded
        receiver ids are the keys of ``receiver_rcv_memo`` plus the
        seed's (id 0: every shard interns the seed first), and its
        transitions hold every value sent r->t.  The memos restart
        empty after a restore, so checkpoints carry these sets.
        """
        out_memo = self.search.out_memo
        rcv_memo = self.search.receiver_rcv_memo
        sids, rids, t2r, r2t = self.restored_ids
        seed_rid = {0} if self.visited else set()
        return (
            sids | out_memo.keys(),
            rids | seed_rid | {rid for rid, _vid in rcv_memo},
            t2r | {sent[1] for sent in out_memo.values() if sent is not None},
            r2t | {vid for _rid, emitted, _count in rcv_memo.values()
                   for vid in emitted},
        )

    def _states(self) -> Dict[str, Any]:
        """The exploration outputs, computed after the search.

        Station states and packet values come from the ids the
        expanded configurations touched; the pair count ranges over
        every configuration reached.
        """
        s = self.search
        mask = _FIELD_MASK
        sids, rids, t2r, r2t = self._expanded_ids()
        sender_keys = s.sender_keys
        receiver_keys = s.receiver_keys
        values = s.values
        pairs = {cfg & _PAIR_MASK for cfg in self.seen}
        return {
            "sender_states": {sender_keys[sid] for sid in sids},
            "receiver_states": {receiver_keys[rid] for rid in rids},
            # Pair identity must survive the merge.  Across shards ids
            # differ, so pairs are shipped as key tuples; with one shard
            # the packed id pair is already canonical and avoids
            # hashing every key tuple.
            "pairs": pairs if self.num_shards == 1 else {
                (sender_keys[pair & mask], receiver_keys[pair >> _S_RID])
                for pair in pairs
            },
            "packet_values": {
                Direction.T2R: {values[vid] for vid in t2r},
                Direction.R2T: {values[vid] for vid in r2t},
            },
        }


def _shard_factory(index: int, num_shards: int, *, sender, receiver,
                   alphabet, max_messages, options):
    """Child-side construction of a shard (module-level: picklable)."""
    return _Shard(
        index, num_shards, sender, receiver, alphabet, max_messages, options
    ).handle


# ----------------------------------------------------------------------
# Checkpoint files
# ----------------------------------------------------------------------

def checkpoint_key(sender: IOAutomaton, receiver: IOAutomaton,
                   alphabet: List[Hashable], max_messages: int,
                   num_shards: int, backend: str,
                   prop_spec: Optional[str] = None,
                   track_parents: bool = False, del_cap: int = 0,
                   capacity: Optional[int] = None,
                   store: str = "memory") -> str:
    """Content key of a checkpoint: everything that shapes the search
    except the budget (so budgets are incremental), salted with
    :data:`KERNEL_VERSION` and the source digest.  Exploration is the
    search with no property and the defaults."""
    from repro.runtime.cache import code_version

    material = (
        CHECKPOINT_FORMAT,
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


def checkpoint_path(checkpoint_dir: str, key: str) -> str:
    return os.path.join(checkpoint_dir, f"{key}.ckpt")


def default_checkpoint_dir(kind: str) -> str:
    """``<result cache dir>/<kind>``: ``exploration`` or ``checker``."""
    from repro.runtime.cache import default_cache_dir

    return os.path.join(default_cache_dir(), kind)


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


def _load_checkpoint(path: str, key: str,
                     num_shards: int) -> Optional[Dict[str, Any]]:
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
    # corruption; skip it silently.
    if not isinstance(payload, dict):
        return None
    if payload.get("format") != CHECKPOINT_FORMAT:
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

def _run_search(
    sender: IOAutomaton,
    receiver: IOAutomaton,
    alphabet: List[Hashable],
    prop: Any,
    *,
    max_messages: int,
    max_configurations: int,
    workers: int = 1,
    use_processes: Optional[bool] = None,
    track_parents: bool = False,
    del_cap: int = 0,
    capacity: Optional[int] = None,
    store: str = "memory",
    store_dir: Optional[str] = None,
    checkpoint_every: int = 0,
    checkpoint_dir: Optional[str] = None,
    resume: bool = True,
    states: bool = False,
    exact: bool = False,
) -> Dict[str, Any]:
    """One complete level-synchronous search.

    ``prop`` is a checker property or ``None`` (exploration);
    ``checkpoint_dir`` enables checkpointing (callers resolve its
    default); ``states`` asks the shards for the exploration outputs;
    ``exact`` selects the BFS-FIFO cut, for a single in-process shard
    without checkpoints only.

    Returns a dict with the verdict ingredients: ``complete`` /
    ``truncated`` flags, the canonical ``target`` (minimum
    ``(digest, canonical)`` over the hit barrier) or ``None``, the
    reconstructed ``path`` when ``track_parents``, per-shard
    ``finishes``, and the ``engine`` record.  Raises
    :class:`ExplorationCapacityError` annotated with partial progress
    (and, with ``states``, the partial exploration result) when an
    intern table overflows.
    """
    for name, value in (("max_messages", max_messages),
                        ("max_configurations", max_configurations),
                        ("checkpoint_every", checkpoint_every)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if capacity is not None and capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
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

    checkpointing = checkpoint_dir is not None
    key = ""
    if checkpointing or (store == "disk" and store_dir is None):
        key = checkpoint_key(
            sender, receiver, alphabet, max_messages, num_shards, backend,
            None if prop is None else prop.spec(), track_parents, del_cap,
            capacity, store,
        )
    if store == "disk" and store_dir is None:
        store_dir = os.path.join(default_checkpoint_dir("checker"),
                                 "store", key)
    ckpt_path = (
        "" if checkpoint_dir is None else checkpoint_path(checkpoint_dir, key)
    )
    if checkpointing and checkpoint_every == 0:
        checkpoint_every = 16

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
        from repro.runtime.bsp import ShardedPool

        pool = ShardedPool(num_shards, functools.partial(
            _shard_factory,
            sender=sender,
            receiver=receiver,
            alphabet=alphabet,
            max_messages=max_messages,
            options=options,
        ))

        def request_all(payloads: List[Tuple]) -> List[Any]:
            return pool.request_all(payloads)

        def request_one(shard_index: int, payload: Tuple) -> Any:
            return pool.request(shard_index, payload)
    else:
        shard = _Shard(0, 1, sender, receiver, alphabet, max_messages,
                       options)

        def request_all(payloads: List[Tuple]) -> List[Any]:
            return [shard.handle(payloads[0])]

        def request_one(shard_index: int, payload: Tuple) -> Any:
            return shard.handle(payload)

    checkpoints_written = 0

    def write_checkpoint(at_level: int, visited: int,
                         is_complete: bool) -> None:
        nonlocal checkpoints_written
        _save_checkpoint(ckpt_path, {
            "format": CHECKPOINT_FORMAT,
            "key": key,
            "num_shards": num_shards,
            "backend": backend,
            "level": at_level,
            "visited": visited,
            "complete": is_complete,
            "dumps": request_all([("snapshot",)] * num_shards),
        })
        checkpoints_written += 1

    level = 0
    visited_total = 0
    levels_this_session = 0
    complete = False
    truncated = False
    hit_reports: List[Tuple[int, Tuple]] = []
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

            if not use_procs and not track_parents:
                base_level = level
                hit_reports = shard.adopt(inbound[0], level)["hits"]
                if hit_reports:
                    # The seed/restored frontier already hits.
                    if checkpointing:
                        write_checkpoint(level, visited_total, False)
                else:
                    save = None
                    if checkpointing:
                        def save(session_level: int,
                                 is_complete: bool) -> None:
                            write_checkpoint(base_level + session_level,
                                             shard.visited, is_complete)

                    stats = shard.run_levels(
                        max_configurations, checkpoint_every, save,
                        base_level, exact,
                    )
                    complete = stats["complete"]
                    truncated = stats["truncated"]
                    visited_total = stats["visited"]
                    levels_this_session = stats["levels"]
                    level = base_level + levels_this_session
                    hit_reports = stats["hits"]
            else:
                while True:
                    responses = request_all([
                        ("adopt", inbound[i], level)
                        for i in range(num_shards)
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
                            write_checkpoint(level, visited_total, False)
                        break
                    if sum(r["size"] for r in responses) == 0:
                        complete = True
                        if checkpointing:
                            write_checkpoint(level, visited_total, True)
                        break
                    if visited_total >= max_configurations:
                        truncated = True
                        if checkpointing:
                            write_checkpoint(level, visited_total, False)
                        break
                    if (
                        checkpointing
                        and levels_this_session > 0
                        and levels_this_session % checkpoint_every == 0
                    ):
                        write_checkpoint(level, visited_total, False)
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
                    from repro.checker.engine import _resolve_path

                    path = _resolve_path(request_one, num_shards, target[0])

            finishes = request_all([("finish", states)] * num_shards)
        except Exception as exc:
            # An intern-table overflow must not discard the search's
            # progress.  Process-backend overflows arrive as a
            # ShardWorkerError carrying the original type name; BSP
            # workers survive handler exceptions, so the shards can
            # still be asked to finish.
            from repro.runtime.bsp import ShardWorkerError

            if isinstance(exc, ExplorationCapacityError):
                error = exc
            elif isinstance(exc, ShardWorkerError) \
                    and "ExplorationCapacityError" in str(exc):
                error = ExplorationCapacityError(str(exc))
            else:
                raise
            if error.levels_completed is None:
                error.levels_completed = level
            if error.configurations_seen is None:
                error.configurations_seen = visited_total
            if states:
                try:
                    partial = _exploration_result(
                        request_all([("finish", True)] * num_shards),
                        truncated=True,
                    )
                except Exception:
                    partial = None
                if partial is not None:
                    error.partial = partial
                    error.configurations_seen = partial.configurations
            if error is exc:
                raise
            raise error from exc
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
            "name": "level-sync-sharded",
            "backend": backend,
            "workers_requested": workers,
            "shards": num_shards,
            "cpus": cpus,
            "picklable": picklable,
            "levels": level,
            "levels_this_session": levels_this_session,
            "session_configurations": visited_total - session_base,
            "cross_shard_forwards": sum(f["forwarded"] for f in finishes),
            "store": store,
            "track_parents": track_parents,
            "checkpointing": checkpointing,
            "checkpoints_written": checkpoints_written,
            "resumed_from": resumed_from,
        },
    }


# ----------------------------------------------------------------------
# Exploration entries
# ----------------------------------------------------------------------

def _exploration_result(finishes: List[Dict[str, Any]],
                        truncated: bool) -> ExplorationResult:
    """Merge the shards' exploration outputs."""
    result = ExplorationResult(
        packet_values={Direction.T2R: set(), Direction.R2T: set()}
    )
    pairs: Set[Any] = set()
    for finish in finishes:
        result.sender_states |= finish["sender_states"]
        result.receiver_states |= finish["receiver_states"]
        pairs |= finish["pairs"]
        for direction, values in finish["packet_values"].items():
            result.packet_values[direction] |= values
    result.pair_count = len(pairs)
    result.configurations = sum(finish["visited"] for finish in finishes)
    result.truncated = truncated
    return result


def _explore(
    sender: IOAutomaton,
    receiver: IOAutomaton,
    message_alphabet: Iterable[Hashable],
    *,
    max_messages: int,
    max_configurations: int,
    workers: int,
    use_processes: Optional[bool],
    checkpoint_every: int,
    checkpoint_dir: Optional[str],
    resume: bool,
    exact: bool,
) -> ExplorationResult:
    """Exploration: the search with no property, plus its outputs."""
    started = time.perf_counter()
    if checkpoint_every > 0 and checkpoint_dir is None:
        checkpoint_dir = default_checkpoint_dir("exploration")
    outcome = _run_search(
        sender, receiver, list(message_alphabet), None,
        max_messages=max_messages,
        max_configurations=max_configurations,
        workers=workers,
        use_processes=use_processes,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        states=True,
        exact=exact,
    )
    finishes = outcome["finishes"]
    result = _exploration_result(finishes, truncated=outcome["truncated"])
    elapsed = time.perf_counter() - started
    result.perf = {
        "elapsed_s": round(elapsed, 6),
        "configs_per_sec": configs_per_sec(
            outcome["session_visited"], elapsed
        ),
        **{
            name: sum(finish[key] for finish in finishes)
            for name, key in (
                ("memo_hits", "memo_hits"),
                ("memo_misses", "memo_misses"),
                ("duplicate_successors_skipped", "dup_skipped"),
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
    workers: int = 2,
    use_processes: Optional[bool] = None,
    checkpoint_every: int = 0,
    checkpoint_dir: Optional[str] = None,
    resume: bool = True,
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
            host has more than one CPU, and the automata pickle.
        checkpoint_every: snapshot cadence in levels (``> 0`` enables
            checkpointing; ``checkpoint_dir`` alone enables it with a
            default cadence of 16 levels).  Termination -- complete or
            truncated -- always writes a final checkpoint when
            enabled.
        checkpoint_dir: checkpoint directory; defaults to
            ``<cache dir>/exploration``.
        resume: load a matching checkpoint before starting.

    Returns:
        An :class:`ExplorationResult`.  ``perf["engine"]`` records the
        backend, effective shard count, CPU count, level count and
        cross-shard traffic.  On a resumed run ``configurations`` is
        the cumulative total and ``configs_per_sec`` covers only this
        session's work.
    """
    return _explore(
        sender,
        receiver,
        message_alphabet,
        max_messages=max_messages,
        max_configurations=max_configurations,
        workers=workers,
        use_processes=use_processes,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        exact=False,
    )
