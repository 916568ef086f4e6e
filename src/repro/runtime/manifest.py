"""The structured run manifest (``run.json``).

One manifest records everything needed to audit a run: the identity
(experiments, root seed, grid size, code version), the schedule
(worker count, cache directory) and per-task observability (status,
seed, attempts, wall time, task metrics such as packet counts).

Deterministic fields -- identity, task list and order, seeds --
are identical across serial, parallel and cached executions of the
same run; only the *timing/status* fields (``wall_time``, ``status``,
``attempts`` and the totals derived from them) vary with scheduling.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.runtime.task import STATUS_CACHED, STATUS_FAILED, TaskOutcome

MANIFEST_SCHEMA = "repro.runtime/2"

# Fields that legitimately differ between two executions of the same
# run (consumers diffing manifests should mask these).
TIMING_FIELDS = ("wall_time", "status", "attempts", "totals")


def build_manifest(
    outcomes: List[TaskOutcome],
    names: List[str],
    fast: bool,
    seed: int,
    workers: int,
    code_version: str,
    cache_dir: Optional[str] = None,
    campaign: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the manifest dict for one finished run.

    The trial tier each task ran, and the gate's reason when a faster
    one was refused, are in that task's ``metrics["engine"]`` and
    ``metrics["engine_refusal"]``.  ``campaign`` is the
    campaign-identity section for runs planned from a
    :class:`~repro.campaign.spec.CampaignSpec` (see
    :func:`repro.campaign.engine.manifest_entry`); plain experiment
    runs omit the key, keeping their manifests byte-identical to the
    pre-campaign format.
    """
    tasks = []
    for outcome in outcomes:
        spec = outcome.spec
        entry: Dict[str, Any] = {
            "id": spec.task_id,
            "experiment": spec.experiment,
            "shard": spec.shard,
            "kind": spec.kind,
            "params": dict(spec.params),
            "seed": spec.seed,
            "status": outcome.status,
            "attempts": outcome.attempts,
            "wall_time": round(outcome.wall_time, 6),
            "metrics": dict(outcome.metrics),
        }
        if outcome.error is not None:
            entry["error"] = outcome.error
        tasks.append(entry)
    # Aggregate numeric per-task metrics (packet counts, engine steps,
    # events elided by COUNTS-mode runs, ...) so one manifest field
    # answers "how much work did this run do" without walking tasks.
    metric_totals: Dict[str, float] = {}
    for outcome in outcomes:
        for name, value in outcome.metrics.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            metric_totals[name] = metric_totals.get(name, 0) + value
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "experiments": list(names),
        "fast": fast,
        "root_seed": seed,
        "workers": workers,
        "cache_dir": cache_dir,
        "code_version": code_version,
        "tasks": tasks,
        "totals": {
            "tasks": len(outcomes),
            "ran": sum(1 for o in outcomes if o.status == "ok"),
            "cached": sum(
                1 for o in outcomes if o.status == STATUS_CACHED
            ),
            "failed": sum(
                1 for o in outcomes if o.status == STATUS_FAILED
            ),
            "wall_time": round(
                sum(o.wall_time for o in outcomes), 6
            ),
            "metrics": metric_totals,
        },
    }
    if campaign is not None:
        manifest["campaign"] = dict(campaign)
    return manifest
