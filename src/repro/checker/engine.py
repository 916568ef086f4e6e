"""The bounded model checker over the level-synchronous BFS driver.

:func:`check_protocol` runs the one search of
:mod:`repro.ioa.exploration_parallel` with a
:class:`~repro.checker.properties.Property` plugged in: every newly
adopted frontier is scanned, shard-locally, against the property, and
the search stops at the first level barrier with a hit -- an invariant
violation or a reachability target.  Because BFS levels are a property
of the protocol alone, the verdict, the stop level, the set of hit
configurations and the canonically selected counterexample target are
**identical for any shard count, any backend, any visited-set store,
and across checkpoint resume** -- the same exactness argument as the
state counts, extended to verdicts.

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
Parents ride the level-barrier checkpoints (``trace="inline"``); the
default ``trace="auto"`` runs the main search without parents and
re-runs it (single shard, in process) with parents only when a hit is
found, keeping the common no-hit search at plain-BFS cost.  The path
is then re-executed through the faithful
:class:`~repro.datalink.system.DataLinkSystem` / ``FullTraceSink``
pipeline by :mod:`repro.checker.trace`.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.ioa.automaton import IOAutomaton
from repro.ioa.exploration import ExplorationCapacityError
from repro.ioa.exploration_parallel import _run_search, default_checkpoint_dir
from repro.checker.properties import make_property
from repro.checker.result import CheckResult
from repro.checker.trace import Counterexample, TraceStep, replay_counterexample

__all__ = ["check_protocol"]


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
            ``budget-exhausted`` verdict (with partial-progress stats),
            as does an intern-table overflow (``stats["capacity_error"]``
            names it).  Negative bounds raise :class:`ValueError`.
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
        capacity: optional channel value-set bound (``>= 1``);
            successors whose per-direction set would exceed it are
            pruned (the bounding discipline for unbounded-header
            protocols).
        checkpoint_every: checkpoint cadence in levels; ``0`` disables
            unless ``checkpoint_dir`` is given.
        checkpoint_dir: checkpoint directory (default
            ``<cache>/checker``).
        resume: continue from a matching checkpoint.

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
    if checkpoint_every > 0 and checkpoint_dir is None:
        checkpoint_dir = default_checkpoint_dir("checker")

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
