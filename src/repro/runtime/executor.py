"""Task scheduling: process pool with serial fallback, retry, timeout.

:func:`run_tasks` takes a list of :class:`TaskSpec` and settles every
one of them exactly once, in three layers:

1. **cache** -- specs whose result is already on disk come back as
   ``cached`` outcomes without touching a worker;
2. **execution** -- the rest run through a
   :class:`~concurrent.futures.ProcessPoolExecutor` when
   ``workers >= 2`` or a ``timeout`` is set (a pool of at least one
   worker, so the limit is enforced; transparent pool recovery on
   :class:`~concurrent.futures.process.BrokenProcessPool`), or
   in-process otherwise.  ``workers=None`` picks the count after the
   cache lookup (:func:`resolve_workers`);
3. **retry** -- tasks that raised are retried up to ``retries`` more
   times (fresh submission each round) before settling as ``failed``.
   Tasks a replaced pool had not finished rerun without using up an
   attempt.

Outcomes are returned in the order of the input specs regardless of
completion order, so downstream merging is deterministic.
"""

from __future__ import annotations

import concurrent.futures
import os
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional

from repro.runtime.progress import NullReporter
from repro.runtime.task import (
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    TaskOutcome,
    TaskSpec,
)

Runner = Callable[[Dict[str, Any]], Dict[str, Any]]


def _default_runner() -> Runner:
    from repro.runtime.worker import execute

    return execute


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where known)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_workers(
    workers: Optional[int], pending: List[TaskSpec]
) -> int:
    """The worker count that settles ``pending`` (the uncached specs).

    An explicit ``workers`` is returned as given.  ``None`` picks one
    worker per usable CPU, capped at the number of experiments with a
    pending task: the shards of one experiment take milliseconds, so
    a pool does not beat the serial path on them.  A single
    experiment, a campaign (its cells share one experiment id), a
    fully cached plan and a one-CPU host all come out as 1, the
    in-process serial path.
    """
    if workers is not None:
        return workers
    experiments = len({spec.experiment for spec in pending})
    return max(1, min(usable_cpus(), experiments))


def _metrics_of(payload: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    if isinstance(payload, dict):
        metrics = payload.get("metrics")
        if isinstance(metrics, dict):
            return dict(metrics)
    return {}


def run_tasks(
    specs: List[TaskSpec],
    workers: Optional[int] = 1,
    cache=None,
    timeout: Optional[float] = None,
    retries: int = 1,
    reporter=None,
    runner: Optional[Runner] = None,
) -> List[TaskOutcome]:
    """Settle every spec; returns outcomes in input order.

    Args:
        specs: the work units.
        workers: process count; ``<= 1`` runs serially in-process.
            ``None`` decides after the cache lookup, by
            :func:`resolve_workers`.
        cache: optional :class:`~repro.runtime.cache.ResultCache`;
            hits skip execution, fresh results are written back.
        timeout: per-task wall-clock limit in seconds.  A run with a
            timeout executes its tasks in a pool of at least one
            worker process, since only a worker can be abandoned
            when its task overruns.
        retries: additional attempts for tasks that raise.
        reporter: progress sink (see :mod:`repro.runtime.progress`).
        runner: override the task body (tests); defaults to
            :func:`repro.runtime.worker.execute`.
    """
    reporter = reporter or NullReporter()
    runner = runner or _default_runner()

    hits: Dict[int, Dict[str, Any]] = {}
    pending: List[int] = []
    for index, spec in enumerate(specs):
        entry = cache.get(spec) if cache is not None else None
        if entry is None:
            pending.append(index)
        else:
            hits[index] = entry
    workers = resolve_workers(workers, [specs[index] for index in pending])
    reporter.on_start(specs, workers)

    outcomes: Dict[int, TaskOutcome] = {}
    done = 0
    total = len(specs)

    def settle(index: int, outcome: TaskOutcome) -> None:
        nonlocal done
        outcomes[index] = outcome
        done += 1
        reporter.on_task(outcome, done, total)
        if (
            cache is not None
            and outcome.status == STATUS_OK
            and outcome.payload is not None
        ):
            cache.put(
                specs[index], outcome.payload, wall_time=outcome.wall_time
            )

    for index, entry in hits.items():
        settle(
            index,
            TaskOutcome(
                spec=specs[index],
                status=STATUS_CACHED,
                payload=entry["payload"],
                wall_time=0.0,
                attempts=0,
                metrics=_metrics_of(entry["payload"]),
            ),
        )

    attempts = {index: 0 for index in pending}
    if pending and (workers >= 2 or timeout is not None):
        _run_pooled(
            specs, pending, attempts, max(workers, 1), timeout, retries,
            runner, settle,
        )
    else:
        _run_serial(specs, pending, attempts, retries, runner, settle)

    ordered = [outcomes[index] for index in range(total)]
    reporter.on_finish(ordered)
    return ordered


def _outcome_ok(
    spec: TaskSpec, result: Dict[str, Any], attempts: int
) -> TaskOutcome:
    payload = result["payload"]
    return TaskOutcome(
        spec=spec,
        status=STATUS_OK,
        payload=payload,
        wall_time=float(result.get("wall_time", 0.0)),
        attempts=attempts,
        metrics=_metrics_of(payload),
    )


def _outcome_failed(
    spec: TaskSpec, error: BaseException, attempts: int
) -> TaskOutcome:
    return TaskOutcome(
        spec=spec,
        status=STATUS_FAILED,
        payload=None,
        attempts=attempts,
        error=f"{type(error).__name__}: {error}",
    )


def _run_serial(specs, pending, attempts, retries, runner, settle) -> None:
    for index in pending:
        spec = specs[index]
        last_error: Optional[BaseException] = None
        while attempts[index] <= retries:
            attempts[index] += 1
            try:
                result = runner(spec.to_dict())
            except Exception as error:  # noqa: BLE001 - retried/reported
                last_error = error
                continue
            settle(index, _outcome_ok(spec, result, attempts[index]))
            last_error = None
            break
        if last_error is not None:
            settle(index, _outcome_failed(spec, last_error, attempts[index]))


def _run_pooled(
    specs, pending, attempts, workers, timeout, retries, runner, settle
) -> None:
    remaining = list(pending)
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    try:
        while remaining:
            futures = {}
            for index in remaining:
                attempts[index] += 1
                futures[index] = pool.submit(runner, specs[index].to_dict())
            retry_round: List[int] = []
            pool_broken = False
            for index in list(futures):
                spec = specs[index]
                if pool_broken and not futures[index].done():
                    # The pool is being replaced (a task overran or a
                    # worker died), and this task may sit queued behind
                    # the lost worker.  It has not failed, so it reruns
                    # on the next pool free of charge.
                    futures[index].cancel()
                    attempts[index] -= 1
                    retry_round.append(index)
                    continue
                try:
                    result = futures[index].result(timeout=timeout)
                except concurrent.futures.TimeoutError:
                    futures[index].cancel()
                    error: BaseException = TimeoutError(
                        f"task exceeded {timeout}s"
                    )
                    if attempts[index] <= retries:
                        retry_round.append(index)
                    else:
                        settle(
                            index,
                            _outcome_failed(spec, error, attempts[index]),
                        )
                    # A timed-out worker may still be burning its slot;
                    # recycle the pool so later tasks start clean.
                    pool_broken = True
                except BrokenProcessPool as error:
                    pool_broken = True
                    if attempts[index] <= retries:
                        retry_round.append(index)
                    else:
                        settle(
                            index,
                            _outcome_failed(spec, error, attempts[index]),
                        )
                except Exception as error:  # noqa: BLE001 - retried
                    if attempts[index] <= retries:
                        retry_round.append(index)
                    else:
                        settle(
                            index,
                            _outcome_failed(spec, error, attempts[index]),
                        )
                else:
                    settle(index, _outcome_ok(spec, result, attempts[index]))
            remaining = retry_round
            if pool_broken:
                pool.shutdown(wait=False, cancel_futures=True)
                pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=workers
                )
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    # Every task of this pool has settled, so joining its idle workers
    # is quick.  Left to interpreter exit, the join races the pool's
    # own teardown and can print an ignored "Bad file descriptor".
    pool.shutdown(wait=True)
