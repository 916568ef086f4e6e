"""Running a whole campaign through the task runtime.

:func:`run_campaign` is the campaign analogue of
:func:`repro.runtime.engine.run_experiments`: compile the spec
(:func:`~repro.campaign.compiler.compile_campaign`), settle every task
on the same run path (:func:`repro.runtime.engine.settle_plan`: cache
first, then pool or serial, then the run manifest), and merge -- with
a ``manifest["campaign"]`` section recording the spec identity and
grid size.

Experiment-backed specs delegate to ``run_experiments`` outright, so a
campaign wrapper around E1-E5 produces byte-identical results and
reuses the exact same cache entries as the bespoke CLI path.

The determinism contract is inherited unchanged: for a fixed
``(spec, fast, seed)`` the merged result is identical whether cells
ran serially, across a process pool, from a warm cache, or resumed
after a partial run -- pinned by ``tests/campaign/test_determinism``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.campaign.compiler import (
    campaign_experiment_name,
    compile_campaign,
)
from repro.campaign.merge import merge_campaign
from repro.campaign.spec import CampaignSpec
from repro.experiments.base import ExperimentResult
from repro.runtime.task import TaskOutcome


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
    workers: Optional[int] = 1,
    cache=None,
    timeout: Optional[float] = None,
    retries: int = 1,
    reporter=None,
) -> CampaignReport:
    """Run one campaign; returns its report.

    Arguments mirror :func:`repro.runtime.engine.run_experiments`:
    ``workers``/``cache``/``timeout``/``retries``/``reporter`` schedule
    the run, and the manifest records the worker count that ran.

    Raises:
        TaskFailure: a cell failed after all retries.
        SpecError: the spec is invalid (structure or names).
    """
    from repro.runtime.engine import run_experiments, settle_plan

    schedule: Dict[str, Any] = dict(
        workers=workers,
        cache=cache,
        timeout=timeout,
        retries=retries,
        reporter=reporter,
    )
    if spec.experiment is not None:
        report = run_experiments(
            [spec.experiment], fast=fast, seed=seed, **schedule
        )
        report.manifest["campaign"] = manifest_entry(spec, fast)
        return CampaignReport(
            result=report.results[spec.experiment],
            manifest=report.manifest,
            outcomes=report.outcomes,
        )

    outcomes, manifest = settle_plan(
        compile_campaign(spec, fast=fast, seed=seed),
        [campaign_experiment_name(spec)],
        fast,
        seed,
        campaign=manifest_entry(spec, fast),
        **schedule,
    )
    result = merge_campaign(
        spec, [outcome.payload for outcome in outcomes], fast
    )
    return CampaignReport(result=result, manifest=manifest, outcomes=outcomes)
