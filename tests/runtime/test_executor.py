"""Unit: the task executor -- serial fallback, pool, retry, timeout.

The pool tests submit module-level functions (anything submitted to a
ProcessPoolExecutor must be picklable by reference).
"""

import concurrent.futures
import dataclasses
import multiprocessing
import os
import time

import pytest

from repro.runtime import executor
from repro.runtime.cache import ResultCache
from repro.runtime.executor import run_tasks
from repro.runtime.progress import NullReporter
from repro.runtime.task import (
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    TaskSpec,
)


def specs(count=3):
    return [
        TaskSpec(
            experiment="fake",
            shard=f"s{i}",
            params={"shard": f"s{i}", "i": i},
            fast=True,
            seed=i,
            kind="shard",
        )
        for i in range(count)
    ]


def echo_runner(spec_dict):
    """Pool-safe task body: payload echoes the spec's parameters."""
    return {
        "payload": {"i": spec_dict["params"]["i"], "seed": spec_dict["seed"],
                    "metrics": {"i": spec_dict["params"]["i"]}},
        "wall_time": 0.01,
    }


def failing_runner(spec_dict):
    raise RuntimeError(f"boom {spec_dict['shard']}")


def sleepy_runner(spec_dict):
    # Short enough that the orphaned worker drains quickly after the
    # pool is recycled, long enough to trip the 0.25s timeout reliably.
    time.sleep(3.0)
    return {"payload": {}, "wall_time": 3.0}


def first_shard_sleeps(spec_dict):
    """Pool-safe: shard s0 overruns a short timeout, the rest echo."""
    if spec_dict["shard"] == "s0":
        time.sleep(3.0)
    return echo_runner(spec_dict)


def first_shard_dies(spec_dict):
    """Pool-safe: shard s0 kills its worker process after 0.2 s, while
    the other shards sleep 0.3 s and echo."""
    if spec_dict["shard"] == "s0":
        time.sleep(0.2)
        os._exit(1)
    time.sleep(0.3)
    return echo_runner(spec_dict)


def sleeps_as_asked(spec_dict):
    """Pool-safe: sleeps the spec's ``sleep`` seconds, then echoes."""
    time.sleep(spec_dict["params"]["sleep"])
    return echo_runner(spec_dict)


def sleep_specs(*durations):
    """``specs(n)``, the i-th one sleeping ``durations[i]`` seconds."""
    return [
        dataclasses.replace(spec, params={**spec.params, "sleep": seconds})
        for spec, seconds in zip(specs(len(durations)), durations)
    ]


def test_serial_runs_in_order():
    outcomes = run_tasks(specs(3), workers=1, runner=echo_runner)
    assert [o.status for o in outcomes] == [STATUS_OK] * 3
    assert [o.payload["i"] for o in outcomes] == [0, 1, 2]
    assert [o.metrics["i"] for o in outcomes] == [0, 1, 2]
    assert all(o.attempts == 1 for o in outcomes)


def test_pool_matches_serial():
    serial = run_tasks(specs(4), workers=1, runner=echo_runner)
    pooled = run_tasks(specs(4), workers=2, runner=echo_runner)
    assert [o.payload for o in serial] == [o.payload for o in pooled]


def test_serial_retries_transient_failures():
    attempts = {"count": 0}

    def flaky(spec_dict):
        attempts["count"] += 1
        if attempts["count"] == 1:
            raise RuntimeError("transient")
        return echo_runner(spec_dict)

    outcomes = run_tasks(specs(1), workers=1, retries=2, runner=flaky)
    assert outcomes[0].status == STATUS_OK
    assert outcomes[0].attempts == 2


def test_failure_after_retry_budget():
    outcomes = run_tasks(specs(1), workers=1, retries=2,
                         runner=failing_runner)
    assert outcomes[0].status == STATUS_FAILED
    assert outcomes[0].attempts == 3
    assert "boom" in outcomes[0].error


def test_pool_failure_after_retry_budget():
    outcomes = run_tasks(specs(1), workers=2, retries=1,
                         runner=failing_runner)
    assert outcomes[0].status == STATUS_FAILED
    assert outcomes[0].attempts == 2
    assert "boom" in outcomes[0].error


def test_pool_joins_its_workers_before_returning():
    """No worker outlives a settled run: left to interpreter exit, the
    join races the pool's teardown and can print an ignored error."""
    before = set(multiprocessing.active_children())
    run_tasks(specs(4), workers=2, runner=echo_runner)
    assert set(multiprocessing.active_children()) - before == set()


def test_pool_timeout_fails_task():
    outcomes = run_tasks(
        specs(1), workers=2, timeout=0.25, retries=0, runner=sleepy_runner
    )
    assert outcomes[0].status == STATUS_FAILED
    assert "TimeoutError" in outcomes[0].error


def test_overrunning_worker_is_stopped_before_returning():
    """The worker of a task past its limit is terminated, not left to
    finish: a hung task must not keep the process alive."""
    before = set(multiprocessing.active_children())
    started = time.perf_counter()
    outcomes = run_tasks(
        specs(1), workers=1, timeout=0.25, retries=0, runner=sleepy_runner
    )
    assert outcomes[0].status == STATUS_FAILED
    assert set(multiprocessing.active_children()) - before == set()
    assert time.perf_counter() - started < 2.0


def test_timeout_counts_from_submission():
    """Both tasks start at once on two workers, so the 0.7 s one
    overruns a 0.55 s limit although the 0.4 s one settles first."""
    outcomes = run_tasks(
        sleep_specs(0.4, 0.7), workers=2, timeout=0.55, retries=0,
        runner=sleeps_as_asked,
    )
    assert [o.status for o in outcomes] == [STATUS_OK, STATUS_FAILED]
    assert "TimeoutError" in outcomes[1].error


@pytest.mark.parametrize("workers", [1, 2])
def test_dead_worker_fails_only_its_task(workers):
    """A worker that dies breaks its pool and every task in flight on
    it.  Only the task that ran alone uses up its attempts; a task
    broken beside others reruns alone, free of charge, and the tasks
    behind them run on a fresh pool."""
    retries = 1
    outcomes = run_tasks(
        specs(4), workers=workers, timeout=30, retries=retries,
        runner=first_shard_dies,
    )
    assert [o.status for o in outcomes] == [
        STATUS_FAILED, STATUS_OK, STATUS_OK, STATUS_OK
    ]
    assert "BrokenProcessPool" in outcomes[0].error
    assert [o.attempts for o in outcomes] == [retries + 1, 1, 1, 1]


@pytest.mark.parametrize("workers", [1, 2])
def test_timeout_fails_only_the_task_that_overran(workers):
    """The limit holds on a serial request too (the tasks run in a pool
    of one), and tasks queued behind the abandoned worker rerun instead
    of inheriting its timeout."""
    started = time.perf_counter()
    outcomes = run_tasks(
        specs(3), workers=workers, timeout=0.25, retries=0,
        runner=first_shard_sleeps,
    )
    assert time.perf_counter() - started < 2.0
    assert [o.status for o in outcomes] == [
        STATUS_FAILED, STATUS_OK, STATUS_OK
    ]
    assert "TimeoutError" in outcomes[0].error
    assert [o.attempts for o in outcomes] == [1, 1, 1]


def test_cache_hits_skip_execution(tmp_path):
    cache = ResultCache(str(tmp_path))
    first = run_tasks(specs(2), workers=1, cache=cache, runner=echo_runner)
    assert [o.status for o in first] == [STATUS_OK, STATUS_OK]

    def exploding(spec_dict):
        raise AssertionError("cache should have served this")

    second = run_tasks(specs(2), workers=1, cache=cache, runner=exploding)
    assert [o.status for o in second] == [STATUS_CACHED, STATUS_CACHED]
    assert [o.payload for o in first] == [o.payload for o in second]
    assert all(o.wall_time == 0.0 for o in second)


def test_failed_tasks_are_not_cached(tmp_path):
    cache = ResultCache(str(tmp_path))
    run_tasks(specs(1), workers=1, retries=0, cache=cache,
              runner=failing_runner)
    retry = run_tasks(specs(1), workers=1, cache=cache, runner=echo_runner)
    assert retry[0].status == STATUS_OK


class StartRecorder(NullReporter):
    def __init__(self):
        self.workers = []

    def on_start(self, specs, workers):
        self.workers.append(workers)


def experiment_specs(experiments):
    """``specs(n)``, the i-th one filed under ``experiments[i]``."""
    return [
        dataclasses.replace(spec, experiment=name)
        for spec, name in zip(specs(len(experiments)), experiments)
    ]


@pytest.mark.parametrize(
    "cpus, workers, experiments, cached, expected",
    [
        (1, None, ["a", "b", "c"], [], 1),
        (4, None, ["a", "b", "c", "a"], [], 3),
        (4, None, ["a", "a", "a"], [], 1),
        (4, None, ["a", "b", "c"], [0, 1], 1),
        (4, None, ["a", "b", "c"], [0, 1, 2], 1),
        (4, 2, ["a", "a", "a"], [], 2),
        (4, 1, ["a", "b", "c"], [], 1),
    ],
    ids=[
        "one-cpu-runs-serially",
        "capped-at-pending-experiments",
        "one-experiments-shards-run-serially",
        "cached-experiments-do-not-count",
        "fully-cached-plan-starts-no-pool",
        "explicit-pool-is-kept",
        "explicit-serial-is-kept",
    ],
)
def test_worker_count(
    monkeypatch, tmp_path, cpus, workers, experiments, cached, expected
):
    plan = experiment_specs(experiments)
    cache = ResultCache(str(tmp_path))
    run_tasks([plan[i] for i in cached], workers=1, cache=cache,
              runner=echo_runner)

    pools = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def spy_pool(max_workers=None, **kwargs):
        pools.append(max_workers)
        return real_pool(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(executor, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(
        executor.concurrent.futures, "ProcessPoolExecutor", spy_pool
    )
    reporter = StartRecorder()
    outcomes = run_tasks(plan, workers=workers, cache=cache,
                         reporter=reporter, runner=echo_runner)

    assert reporter.workers == [expected]
    assert pools == ([expected] if expected >= 2 else [])
    assert [o.payload["i"] for o in outcomes] == list(range(len(plan)))
    assert [o.status for o in outcomes] == [
        STATUS_CACHED if i in cached else STATUS_OK
        for i in range(len(plan))
    ]
