"""Parallel, cached, observable experiment-execution engine.

The experiment harness (:mod:`repro.experiments`) decomposes into
independent, seed-sharded *tasks* -- one parameter point (or one whole
experiment) each -- that this package schedules:

* :mod:`repro.runtime.seeds` -- deterministic per-shard seed
  derivation (:func:`derive_seed`), so a run is reproducible no matter
  how its tasks are scheduled;
* :mod:`repro.runtime.task` -- the task model
  (:class:`TaskSpec`/:class:`TaskOutcome`);
* :mod:`repro.runtime.cache` -- an on-disk JSON result cache keyed by
  a content hash of experiment, parameters, seed and code version;
* :mod:`repro.runtime.executor` -- a
  :class:`~concurrent.futures.ProcessPoolExecutor` scheduler with a
  serial fallback, per-task timeout and bounded retry;
* :mod:`repro.runtime.manifest` -- the structured run manifest
  (``run.json``) recording per-task status and metrics;
* :mod:`repro.runtime.progress` -- live progress reporting;
* :mod:`repro.runtime.engine` -- the orchestrator gluing the above to
  the experiment registry (:func:`run_experiments`).

Quickstart::

    from repro.runtime import ResultCache, run_experiments

    report = run_experiments(
        ["hoeffding", "backlog"], fast=True, seed=0,
        workers=2, cache=ResultCache(".repro-cache"),
    )
    assert report.results["hoeffding"].passed
"""

from repro.runtime.cache import ResultCache, code_version
from repro.runtime.engine import RunReport, TaskFailure, plan_tasks, run_experiments
from repro.runtime.executor import run_tasks
from repro.runtime.manifest import build_manifest
from repro.runtime.progress import NullReporter, TextProgressReporter
from repro.runtime.seeds import derive_seed
from repro.runtime.task import TaskOutcome, TaskSpec

__all__ = [
    "NullReporter",
    "ResultCache",
    "RunReport",
    "TaskFailure",
    "TaskOutcome",
    "TaskSpec",
    "TextProgressReporter",
    "build_manifest",
    "code_version",
    "derive_seed",
    "plan_tasks",
    "run_experiments",
    "run_tasks",
]
