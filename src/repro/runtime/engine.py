"""Orchestration: experiments -> tasks -> executor -> merged results.

:func:`run_experiments` is the one call behind both the CLI and
library users.  It plans the run (:func:`plan_tasks`), settles every
task through :func:`repro.runtime.executor.run_tasks` (cache first,
then pool or serial execution), merges shard payloads back into
:class:`~repro.experiments.base.ExperimentResult` objects, and builds
the run manifest.  :func:`settle_plan` is the part it shares with
campaign runs (:func:`repro.campaign.engine.run_campaign`): settle a
plan, fail on a failed task, build the manifest.  With
``workers=None`` (the CLIs' default) the worker count is picked after
the cache lookup: :func:`~repro.runtime.executor.resolve_workers` runs
one worker per usable CPU, capped at the number of experiments with
uncached tasks.

Determinism contract: for a fixed ``(names, fast, seed)`` the merged
results -- and hence ``ExperimentResult.to_dict()`` -- are identical
whether tasks ran serially, across a process pool, or from a warm
cache.  Shard seeds come from
:func:`~repro.runtime.seeds.derive_seed`, never from scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.base import ExperimentResult
from repro.runtime import cache as cache_mod
from repro.runtime.executor import resolve_workers, run_tasks
from repro.runtime.manifest import build_manifest
from repro.runtime.task import (
    STATUS_CACHED,
    STATUS_FAILED,
    TaskOutcome,
    TaskSpec,
)


class TaskFailure(RuntimeError):
    """One or more tasks exhausted their retry budget.

    Attributes:
        outcomes: the failed outcomes (spec + stringified error each).
    """

    def __init__(self, outcomes: List[TaskOutcome]) -> None:
        self.outcomes = outcomes
        lines = ", ".join(
            f"{o.spec.task_id} ({o.error})" for o in outcomes
        )
        super().__init__(f"{len(outcomes)} task(s) failed: {lines}")


@dataclass
class RunReport:
    """Everything one engine run produced.

    Attributes:
        results: merged results, keyed by experiment name, in run
            order.
        manifest: the structured run record (see
            :mod:`repro.runtime.manifest`).
        outcomes: raw per-task outcomes, in plan order.
    """

    results: Dict[str, ExperimentResult] = field(default_factory=dict)
    manifest: Dict[str, Any] = field(default_factory=dict)
    outcomes: List[TaskOutcome] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Every experiment's shape checks hold."""
        return all(result.passed for result in self.results.values())


def plan_tasks(
    names: List[str], fast: bool = False, seed: int = 0
) -> List[TaskSpec]:
    """Decompose experiments into task specs, seeds derived per shard.

    Every experiment plans through the campaign compiler
    (:mod:`repro.campaign.compiler`): modules that publish a
    ``CAMPAIGN`` spec expand their declarative grids, unsharded ones
    get a synthesized whole-experiment spec.  Sharded modules
    *without* a ``CAMPAIGN`` spec (third-party or test-injected) keep
    the legacy path -- one spec per ``shards(fast)`` entry.  Either
    way, shard tasks carry :func:`~repro.runtime.seeds.derive_seed`
    seeds and whole tasks the root seed, which keeps output
    bit-identical to a direct ``run(fast=..., seed=...)`` call.
    """
    from repro.campaign.compiler import (
        campaign_for_experiment,
        compile_campaign,
    )
    from repro.experiments.runner import REGISTRY, SHARDED
    from repro.runtime.seeds import derive_seed
    from repro.runtime.task import KIND_SHARD

    specs: List[TaskSpec] = []
    for name in names:
        if name not in REGISTRY:
            raise KeyError(f"unknown experiment {name!r}")
        module = SHARDED.get(name)
        if module is not None and getattr(module, "CAMPAIGN", None) is None:
            for params in module.shards(fast):
                shard = params["shard"]
                specs.append(
                    TaskSpec(
                        experiment=name,
                        shard=shard,
                        params=dict(params),
                        fast=fast,
                        seed=derive_seed(seed, name, shard),
                        kind=KIND_SHARD,
                    )
                )
            continue
        specs.extend(
            compile_campaign(
                campaign_for_experiment(name), fast=fast, seed=seed
            )
        )
    return specs


def merge_outcomes(
    names: List[str],
    outcomes: List[TaskOutcome],
    fast: bool,
    seed: int,
) -> Dict[str, ExperimentResult]:
    """Reassemble per-experiment results from settled task outcomes."""
    from repro.experiments.runner import SHARDED

    by_experiment: Dict[str, List[TaskOutcome]] = {}
    for outcome in outcomes:
        by_experiment.setdefault(outcome.spec.experiment, []).append(outcome)

    results: Dict[str, ExperimentResult] = {}
    for name in names:
        settled = by_experiment.get(name, [])
        module = SHARDED.get(name)
        if module is None:
            (outcome,) = settled
            results[name] = ExperimentResult.from_dict(outcome.payload)
        else:
            payloads = [outcome.payload for outcome in settled]
            results[name] = module.merge(payloads, fast, seed)
    return results


def settle_plan(
    specs: List[TaskSpec],
    names: List[str],
    fast: bool,
    seed: int,
    workers: Optional[int] = 1,
    cache=None,
    timeout: Optional[float] = None,
    retries: int = 1,
    reporter=None,
    campaign: Optional[Dict[str, Any]] = None,
) -> Tuple[List[TaskOutcome], Dict[str, Any]]:
    """Settle planned tasks; returns their outcomes and the manifest.

    The run path under both :func:`run_experiments` and
    :func:`repro.campaign.engine.run_campaign`; the scheduling
    arguments are theirs.  ``names`` and ``campaign`` identify the run
    in the manifest, whose ``workers`` is the count that ran
    (:func:`~repro.runtime.executor.resolve_workers` over the uncached
    tasks, as :func:`~repro.runtime.executor.run_tasks` picked it).

    Raises:
        TaskFailure: a task failed after all retries.
    """
    outcomes = run_tasks(
        specs,
        workers=workers,
        cache=cache,
        timeout=timeout,
        retries=retries,
        reporter=reporter,
    )
    failed = [o for o in outcomes if o.status == STATUS_FAILED]
    if failed:
        raise TaskFailure(failed)
    manifest = build_manifest(
        outcomes,
        names=names,
        fast=fast,
        seed=seed,
        workers=resolve_workers(
            workers,
            [o.spec for o in outcomes if o.status != STATUS_CACHED],
        ),
        code_version=cache_mod.code_version(),
        cache_dir=str(cache.directory) if cache is not None else None,
        campaign=campaign,
    )
    return outcomes, manifest


def run_experiments(
    names: List[str],
    fast: bool = False,
    seed: int = 0,
    workers: Optional[int] = 1,
    cache=None,
    timeout: Optional[float] = None,
    retries: int = 1,
    reporter=None,
) -> RunReport:
    """Run experiments through the task runtime; returns a report.

    Args:
        names: experiment registry names, in the order to report.
        fast: reduced (CI-sized) grids.
        seed: root seed; shard seeds are derived from it.
        workers: process count (``<= 1`` = serial in-process);
            ``None`` picks it after the cache lookup
            (:func:`~repro.runtime.executor.resolve_workers`).  The
            manifest records the count that ran.
        cache: a :class:`~repro.runtime.cache.ResultCache`, or ``None``
            to disable caching entirely.
        timeout: per-task wall-clock limit; a run with one executes
            its tasks in a pool of at least one worker process.
        retries: extra attempts per task on worker failure.
        reporter: progress sink (see :mod:`repro.runtime.progress`).

    Raises:
        TaskFailure: a task failed after all retries; no partial
            results are returned.
    """
    outcomes, manifest = settle_plan(
        plan_tasks(names, fast=fast, seed=seed),
        names,
        fast,
        seed,
        workers=workers,
        cache=cache,
        timeout=timeout,
        retries=retries,
        reporter=reporter,
    )
    results = merge_outcomes(names, outcomes, fast, seed)
    return RunReport(results=results, manifest=manifest, outcomes=outcomes)
