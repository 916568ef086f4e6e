"""Run the end-to-end benchmark: real CLI commands in fresh interpreters.

Each run of a workload

1. takes cold+warm samples until the next one would overrun
   ``--seconds`` (never fewer than the workload's ``min_samples``):
   each command once against a fresh, empty cache directory, then once
   more against the same one.  Wall time, CPU and peak RSS come from
   ``os.wait4`` on each child;
2. spreads ``SETUP_SAMPLES`` set-up probes (``probe.py``) among them:
   fresh interpreters that import, parse and plan, then stop
   (``setup_s``);
3. with tracing on, alternates untraced samples with traced ones
   (``tracing.py``), which give the per-layer metrics.

Every invocation is one *operation*.  It fails on an unexpected exit
code, a failed shape check, a wrong verdict or configuration count, a
warm run that recomputed anything, or a results digest that differs
from the first one seen for that command in the run.  Failures are
counted, never fatal.

All scratch files live in ``.bench_e2e/`` at the repository root and
are deleted when the run ends.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from benchmarks.e2e import tracing
from benchmarks.e2e.workloads import (
    SETUP_SAMPLES, WORKLOADS, Command, Workload, program_seed,
)

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCRATCH = ".bench_e2e"

#: A run of one workload in one mode stops starting work after this
#: many seconds, and kills a command still running then.
HARD_LIMIT_S = 165.0


def load_benchmark() -> Dict[str, Any]:
    """The ``BENCHMARK.json`` beside the sources: names, units, bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Proc:
    """One finished child process."""

    wall: float
    cpu: float
    rss_mb: float
    exit_code: int
    stdout: pathlib.Path


def run_process(argv, cwd, env, stdout, timeout: float) -> Proc:
    """Run ``argv`` to completion; times it and reads its rusage.

    The child is killed after ``timeout`` seconds and always reaped
    before this returns, also when the caller is interrupted.
    """
    with open(stdout, "wb") as out, open(f"{stdout}.err", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
        stdout=pathlib.Path(stdout),
    )


def _digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def verify(command: Command, proc: Proc, document: pathlib.Path, warm: bool):
    """``(digest, None)`` when the output is right, else ``(None, why)``.

    The digest covers what the results *say* -- tables, notes and
    checks, or the checker's verdict, counts and counterexample -- and
    masks ``metrics``, which carries the resolved engine label.
    """
    if proc.exit_code != command.exit_code:
        return None, f"exit code {proc.exit_code}, expected {command.exit_code}"
    source = proc.stdout if command.verdict is not None else document
    try:
        result = json.loads(source.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return None, f"unreadable JSON output: {exc}"
    if command.verdict is not None:
        return _verify_check(command, result)
    experiments = result.get("experiments") or []
    failed = [
        f"{exp['exp_id']}: {check}"
        for exp in experiments
        for check, ok in exp["checks"].items()
        if not ok
    ]
    if result.get("passed") is not True or failed or not experiments:
        return None, "shape checks failed: " + "; ".join(failed)
    totals = result["manifest"]["totals"]
    if warm and totals["cached"] != totals["tasks"]:
        return None, f"warm run recomputed {totals['ran']} task(s)"
    return _digest([
        {key: exp[key] for key in ("exp_id", "title", "tables", "notes", "checks")}
        for exp in experiments
    ]), None


def _verify_check(command: Command, result: Dict[str, Any]):
    stats = result.get("stats") or {}
    if result.get("verdict") != command.verdict:
        return None, f"verdict {result.get('verdict')!r}, expected {command.verdict!r}"
    if stats.get("configurations") != command.configurations:
        return None, (
            f"{stats.get('configurations')} configurations, "
            f"expected {command.configurations}"
        )
    cex = result.get("counterexample")
    if command.counterexample:
        violations = ((cex or {}).get("spec") or {}).get("violations") or []
        if not (cex and cex.get("concrete")) or not any(
            v.get("property") == "DL1" for v in violations
        ):
            return None, "no concrete replayed counterexample violating DL1"
    return _digest([
        result["verdict"],
        stats["configurations"],
        stats.get("levels"),
        (cex or {}).get("fingerprint"),
    ]), None


class WorkloadRun:
    """One run of one workload: scratch space, child env and tallies.

    ``seed`` is the program seed the commands get, not ``--seed``.
    """

    def __init__(self, workload: Workload, seed: int, scratch: pathlib.Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.deadline = time.perf_counter() + HARD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.digests: Dict[int, str] = {}
        self._count = 0

    def _path(self, stem: str) -> pathlib.Path:
        self._count += 1
        return self.scratch / f"{self._count:04d}-{stem}"

    def _env(self, cache: pathlib.Path) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        env["REPRO_CACHE_DIR"] = str(cache)
        env["TMPDIR"] = str(self.scratch)
        env.pop("REPRO_EXPLORE_WORKERS", None)
        return env

    def _launch(self, argv: List[str], stem: str, cache: pathlib.Path) -> Proc:
        self.attempted += 1
        return run_process(
            argv, ROOT, self._env(cache), self._path(stem),
            self.deadline - time.perf_counter(),
        )

    def _fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(why)

    def probe(self) -> float:
        """One set-up probe; returns its wall time."""
        argvs = [self._argv(command, "-", "-") for command in self.workload.commands]
        proc = self._launch(
            [sys.executable, str(HERE / "probe.py"), json.dumps(argvs)],
            "probe", self.scratch,
        )
        if proc.exit_code != 0:
            self._fail(f"set-up probe exited {proc.exit_code}")
        return proc.wall

    def _argv(self, command: Command, document: str, cache: str) -> List[str]:
        values = {"seed": str(self.seed), "json": document, "cache": cache}
        return [arg.format(**values) for arg in command.argv]

    def sample(self, traced: bool = False) -> Dict[str, Any]:
        """Every command cold, then every command warm."""
        cache = pathlib.Path(tempfile.mkdtemp(prefix="cache-", dir=self.scratch))
        result: Dict[str, Any] = {"cold": [], "warm": [], "spans": {}}
        try:
            for phase in ("cold", "warm"):
                spans = []
                for index, command in enumerate(self.workload.commands):
                    document = self._path(f"{phase}.json")
                    argv = self._argv(command, str(document), str(cache))
                    if traced:
                        trace = self._path(f"{phase}-spans.json")
                        prefix = [sys.executable, str(HERE / "tracing.py"),
                                  str(trace), "--"]
                    else:
                        prefix = [sys.executable, "-m", "repro.experiments"]
                    proc = self._launch(prefix + argv, phase, cache)
                    result[phase].append(proc)
                    self._check(index, command, proc, document, phase == "warm")
                    if traced:
                        spans.append(_load_spans(trace))
                result["spans"][phase] = spans
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        return result

    def _check(self, index, command, proc, document, warm) -> None:
        try:
            digest, why = verify(command, proc, document, warm)
        except (KeyError, TypeError, AttributeError) as exc:
            digest, why = None, f"malformed output: {exc!r}"
        if digest is not None and self.digests.setdefault(index, digest) != digest:
            digest, why = None, (
                f"results digest {digest} differs from {self.digests[index]}"
            )
        if digest is None:
            self._fail(f"{' '.join(command.argv[:3])}: {why}")


def _load_spans(path: pathlib.Path) -> Dict[str, Any]:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {"spans": [], "numpy_loaded": False}


def _merge_spans(documents: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Concatenate several processes' spans, renumbering ids."""
    merged: List[Dict[str, Any]] = []
    for document in documents:
        offset = len(merged)
        for span in document["spans"]:
            parent = span["parent"]
            merged.append(dict(
                span,
                id=span["id"] + offset,
                parent=None if parent is None else parent + offset,
            ))
    return merged


def summarize(values: List[float]) -> Dict[str, Any]:
    """Median, quartiles and sample count."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "q1": q1, "q3": q3, "samples": len(values)}


def _keep_sampling(run: WorkloadRun, started: float, taken: int, floor: int,
                   seconds: float) -> bool:
    """Whether to take another sample: below ``floor``, or if it fits."""
    now = time.perf_counter()
    if taken == 0:
        return True
    if taken < floor:
        return now < run.deadline
    elapsed = now - started
    return started + elapsed * (taken + 1) / taken <= min(
        started + seconds, run.deadline
    )


def measure_end_to_end(run: WorkloadRun, seconds: float) -> Dict[str, Any]:
    """Untraced cold+warm samples, with set-up probes spread among them.

    Probes are taken at an even rate over the measuring window, so
    ``setup_s`` sees the same stretch of machine time as the samples.
    """
    setup: List[float] = []
    samples: List[Dict[str, Any]] = []
    started = time.perf_counter()
    floor = run.workload.min_samples
    while _keep_sampling(run, started, len(samples), floor, seconds):
        due = SETUP_SAMPLES * min(1.0, (time.perf_counter() - started) / seconds)
        while len(setup) < due:
            setup.append(run.probe())
        samples.append(run.sample())
    while len(setup) < SETUP_SAMPLES:
        setup.append(run.probe())
    return {
        "setup_s": summarize(setup),
        "wall_s": summarize([sum(p.wall for p in s["cold"]) for s in samples]),
        "warm_wall_s": summarize([sum(p.wall for p in s["warm"]) for s in samples]),
        "cpu_s": summarize([sum(p.cpu for p in s["cold"]) for s in samples]),
        "peak_rss_mb": summarize(
            [max(p.rss_mb for p in s["cold"] + s["warm"]) for s in samples]
        ),
    }


def measure_layers(run: WorkloadRun, seconds: float) -> Dict[str, Any]:
    """Alternate untraced and traced samples; per-layer medians."""
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while _keep_sampling(run, started, len(traced), 1, seconds):
        plain.append(run.sample())
        traced.append(run.sample(traced=True))
    per_sample = []
    for sample in traced:
        cold, warm = sample["spans"]["cold"], sample["spans"]["warm"]
        metrics = tracing.layer_metrics(_merge_spans(cold), _merge_spans(warm))
        metrics["setup.numpy_loaded"] = int(any(d["numpy_loaded"] for d in cold))
        per_sample.append(metrics)
    layers = {
        name: summarize([m[name] for m in per_sample]) for name in per_sample[0]
    }
    plain_wall = statistics.median(sum(p.wall for p in s["cold"]) for s in plain)
    traced_wall = statistics.median(sum(p.wall for p in s["cold"]) for s in traced)
    layers["trace.overhead_ratio"] = dict(
        summarize([traced_wall / plain_wall]), samples=len(traced)
    )
    return layers


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: Optional[int]) -> Dict[str, Any]:
    """Measure one workload; ``trace`` None measures both ways."""
    base = ROOT / SCRATCH
    base.mkdir(exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=base))
    run = WorkloadRun(workload, program_seed(seed), scratch)
    out: Dict[str, Any] = {
        "workload": workload.name, "seed": seed, "program_seed": run.seed,
    }
    try:
        if trace != 1:
            out["metrics"] = measure_end_to_end(run, seconds)
        if trace != 0:
            run.deadline = time.perf_counter() + HARD_LIMIT_S
            out["layers"] = measure_layers(run, seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    combined = "".join(run.digests[i] for i in sorted(run.digests))
    out.update({
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_ratio": run.failed / run.attempted,
        "digest": hashlib.sha256(combined.encode()).hexdigest()[:16],
        "errors": run.errors,
    })
    return out


def environment(seed: int, seconds: float) -> Dict[str, Any]:
    """What the numbers were measured on."""
    from importlib import metadata

    try:
        numpy_version: Optional[str] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "seconds": seconds,
    }


def _git_commit() -> Optional[str]:
    """HEAD's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def missing_sources() -> List[str]:
    """Files the benchmark runs that are absent from the checkout."""
    needed = ["src/repro/__init__.py", "src/repro/experiments/runner.py"]
    needed += [
        arg for w in WORKLOADS.values() for c in w.commands for arg in c.argv
        if arg.endswith(".json") and "/" in arg
    ]
    return [path for path in needed if not (ROOT / path).is_file()]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description=(
            "End-to-end benchmark of the reproduction, campaign and "
            "checker commands ('compare PARENT_DIR CHANGE_DIR' compares "
            "two sets of --json outputs)"
        ),
    )
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measuring time per workload and mode (default: run_seconds "
             "from BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: end-to-end metrics only; 1: per-layer metrics only "
             "(default: both)",
    )
    parser.add_argument("--json", metavar="OUT", help="write every number to OUT")
    args = parser.parse_args(argv)
    # A terminated run still kills and reaps its child and removes its
    # scratch files: the handler turns SIGTERM into SystemExit, which
    # unwinds through run_process and run_workload.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = missing_sources()
    if missing:
        print(f"error: sources to benchmark not found: {missing}", file=sys.stderr)
        return 2
    spec = load_benchmark()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = args.workload or list(WORKLOADS)
    compileall.compile_dir(str(ROOT / "src"), quiet=2)

    results = [
        run_workload(WORKLOADS[name], args.seed, seconds, args.trace)
        for name in names
    ]
    document = {
        "environment": environment(args.seed, seconds),
        "workloads": {r["workload"]: r for r in results},
    }
    for result in results:
        _print_result(result, units)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")

    sections = {0: ["end_to_end"], 1: ["per_layer"]}.get(
        args.trace, ["end_to_end", "per_layer"]
    )
    wanted = [m["name"] for section in sections for m in spec[section]]
    metrics = {}
    for result in results:
        values = {**result.get("metrics", {}), **result.get("layers", {})}
        for name in wanted:
            key = name if len(results) == 1 else f"{result['workload']}:{name}"
            metrics[key] = {"value": values[name]["value"], "unit": units[name]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _print_result(result: Dict[str, Any], units: Dict[str, str]) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"program seed {result['program_seed']}) "
          f"digest {result['digest']} "
          f"operations {result['attempted']} failed {result['failed']} "
          f"fail_ratio {result['fail_ratio']:.4f}")
    for section in ("metrics", "layers"):
        for name, m in result.get(section, {}).items():
            print(f"  {name:<32} {m['value']:>14.6g} {units[name]:<6} "
                  f"n={m['samples']}")
    for error in result["errors"]:
        print(f"  FAILED {error}")
