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
   cache lookup (:func:`resolve_workers`).  The pool holds at most
   ``workers`` tasks at a time, so each task starts when it is
   submitted and its limit counts from then; a pool whose task
   overran is replaced, its workers terminated;
3. **retry** -- tasks that raised or overran are resubmitted up to
   ``retries`` more times before settling as ``failed``.  Tasks a
   replaced pool had not finished rerun without using up an attempt.
   A dead worker fails every task in flight on its pool, so a task
   broken beside others also gets its attempt back and from then on
   runs alone: only a break while it runs alone is charged.

Outcomes are returned in the order of the input specs regardless of
completion order, so downstream merging is deterministic.
"""

from __future__ import annotations

import collections
import concurrent.futures
import math
import os
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

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
        timeout: per-task wall-clock limit in seconds, counted from
            the task's submission.  A run with a timeout executes its
            tasks in a pool of at least one worker process, since
            only a worker can be stopped when its task overruns.
        retries: additional attempts for tasks that raise or overrun.
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
    queue = collections.deque(pending)
    # future -> (spec index, deadline).  At most ``workers`` tasks are
    # in flight, so a submitted task starts at once and its limit
    # counts from then, and a dying worker takes down only the tasks
    # in flight with it.
    running: Dict[concurrent.futures.Future, Tuple[int, float]] = {}
    pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
    # Tasks in flight together when a worker died: any of them may
    # have killed it, so from then on each runs with nothing else in
    # flight, and only a break while it runs alone is charged to it.
    alone: Set[int] = set()

    def retry_or_fail(index: int, error: BaseException) -> None:
        if attempts[index] <= retries:
            queue.append(index)
        else:
            settle(index, _outcome_failed(specs[index], error, attempts[index]))

    try:
        while queue or running:
            if pool is None:
                pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=workers
                )
            lost = broken = False
            while queue and len(running) < workers:
                if running and (
                    queue[0] in alone
                    or any(index in alone for index, _ in running.values())
                ):
                    break
                try:
                    future = pool.submit(runner, specs[queue[0]].to_dict())
                except BrokenProcessPool:
                    lost = broken = True  # a worker died since the last wait
                    break
                index = queue.popleft()
                attempts[index] += 1
                running[future] = (
                    index,
                    math.inf if timeout is None else time.monotonic() + timeout,
                )
            if not lost:
                first = min(deadline for _, deadline in running.values())
                concurrent.futures.wait(
                    running,
                    timeout=(
                        None if first == math.inf
                        else max(0.0, first - time.monotonic())
                    ),
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
            shared = len(running) > 1
            for future in [f for f in running if f.done()]:
                error = future.exception()
                if isinstance(error, BrokenProcessPool):
                    lost = broken = True
                    if shared:
                        continue  # not known to be the culprit: see below
                index, _ = running.pop(future)
                if error is None:
                    settle(index, _outcome_ok(
                        specs[index], future.result(), attempts[index]
                    ))
                else:
                    retry_or_fail(index, error)
            now = time.monotonic()
            for future, (index, deadline) in list(running.items()):
                if deadline <= now:
                    del running[future]
                    retry_or_fail(
                        index, TimeoutError(f"task exceeded {timeout}s")
                    )
                    lost = True
            if lost:
                # A task overran (its worker is still busy with it) or a
                # worker died: replace the pool.  The tasks still held
                # here rerun first, free of charge: they had not
                # finished, or a worker died beside them.
                unfinished = [index for index, _ in running.values()]
                if broken and shared:
                    alone.update(unfinished)
                for index in unfinished:
                    attempts[index] -= 1
                queue.extendleft(reversed(unfinished))
                running.clear()
                _discard(pool)
                pool = None
    except BaseException:
        if pool is not None:
            _discard(pool)
        raise
    if pool is not None:
        # Every task of this pool has settled, so joining its idle
        # workers is quick.  Left to interpreter exit, the join races
        # the pool's own teardown and can print an ignored "Bad file
        # descriptor".
        pool.shutdown(wait=True)


def _discard(pool: concurrent.futures.ProcessPoolExecutor) -> None:
    """Stop ``pool`` and its workers now, even one mid-task.

    A worker on an abandoned task would otherwise run it to the end,
    and the interpreter waits for it at exit.  Terminating the workers
    makes the pool's manager thread fail what it still holds and join
    them; ``shutdown(wait=True)`` waits for that thread.
    ``ProcessPoolExecutor.terminate_workers`` does the same from
    Python 3.14 on, but does not wait.
    """
    for process in list((pool._processes or {}).values()):
        process.terminate()
    pool.shutdown(wait=True, cancel_futures=True)
