"""Running a whole campaign through the task runtime.

:func:`run_campaign` is the campaign analogue of
:func:`repro.runtime.engine.run_experiments`: compile the spec
(:func:`~repro.campaign.compiler.compile_campaign`), settle every task
through the executor (cache first, then pool or serial), merge, and
build the run manifest -- with a ``manifest["campaign"]`` section
recording the spec identity and grid size.

Experiment-backed specs delegate to ``run_experiments`` outright, so a
campaign wrapper around E1-E5 produces byte-identical results and
reuses the exact same cache entries as the bespoke CLI path.

The determinism contract is inherited unchanged: for a fixed
``(spec, fast, seed)`` the merged result is identical whether cells
ran serially, across a process pool, from a warm cache, or resumed
after a partial run -- pinned by ``tests/campaign/test_determinism``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.campaign.compiler import (
    campaign_experiment_name,
    compile_campaign,
)
from repro.campaign.merge import merge_campaign
from repro.campaign.spec import CampaignSpec
from repro.experiments.base import ExperimentResult
from repro.runtime.task import STATUS_FAILED, TaskOutcome


@dataclass
class CampaignReport:
    """Everything one campaign run produced.

    Attributes:
        result: the merged, render-able report.
        manifest: the structured run record, including the
            ``"campaign"`` section.
        outcomes: raw per-task outcomes, in plan order.
    """

    result: ExperimentResult
    manifest: Dict[str, Any] = field(default_factory=dict)
    outcomes: List[TaskOutcome] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Every check of the merged result holds."""
        return self.result.passed


def manifest_entry(spec: CampaignSpec, fast: bool) -> Dict[str, Any]:
    """The ``manifest["campaign"]`` section for one run."""
    metrics = sorted({m for group in spec.groups for m in group.metrics})
    return {
        "name": spec.name,
        "title": spec.title,
        "experiment": spec.experiment,
        "groups": len(spec.groups),
        "cells": len(spec.expand(fast)),
        "metrics": metrics,
    }


def run_campaign(
    spec: CampaignSpec,
    fast: bool = False,
    seed: int = 0,
    workers: int = 1,
    cache=None,
    timeout: Optional[float] = None,
    retries: int = 1,
    reporter=None,
    engine: str = "auto",
) -> CampaignReport:
    """Run one campaign; returns its report.

    Arguments mirror :func:`repro.runtime.engine.run_experiments` --
    ``workers``/``cache``/``timeout``/``retries``/``reporter`` schedule
    the run, ``engine`` is execution configuration threaded to the
    cells (bit-identical across tiers, hence outside task specs and
    cache keys).

    Raises:
        TaskFailure: a cell failed after all retries.
        SpecError: the spec is invalid (structure or names).
    """
    from repro.runtime import cache as cache_mod
    from repro.runtime.engine import TaskFailure, run_experiments
    from repro.runtime.executor import run_tasks
    from repro.runtime.manifest import build_manifest

    if spec.experiment is not None:
        report = run_experiments(
            [spec.experiment],
            fast=fast,
            seed=seed,
            workers=workers,
            cache=cache,
            timeout=timeout,
            retries=retries,
            reporter=reporter,
            engine=engine,
        )
        report.manifest["campaign"] = manifest_entry(spec, fast)
        return CampaignReport(
            result=report.results[spec.experiment],
            manifest=report.manifest,
            outcomes=report.outcomes,
        )

    from repro.core.trials import TRIAL_ENGINES

    if engine not in TRIAL_ENGINES:
        raise ValueError(
            f"engine must be one of {TRIAL_ENGINES}, got {engine!r}"
        )
    runner = None
    if engine != "auto":
        from repro.runtime.worker import execute

        runner = functools.partial(execute, engine=engine)

    specs = compile_campaign(spec, fast=fast, seed=seed)
    outcomes = run_tasks(
        specs,
        workers=workers,
        cache=cache,
        timeout=timeout,
        retries=retries,
        reporter=reporter,
        runner=runner,
    )
    failed = [o for o in outcomes if o.status == STATUS_FAILED]
    if failed:
        raise TaskFailure(failed)
    result = merge_campaign(
        spec, [outcome.payload for outcome in outcomes], fast
    )
    manifest = build_manifest(
        outcomes,
        names=[campaign_experiment_name(spec)],
        fast=fast,
        seed=seed,
        workers=workers,
        code_version=cache_mod.code_version(),
        cache_dir=str(cache.directory) if cache is not None else None,
        engine=engine,
        campaign=manifest_entry(spec, fast),
    )
    return CampaignReport(result=result, manifest=manifest, outcomes=outcomes)
