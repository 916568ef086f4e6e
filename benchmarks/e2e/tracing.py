"""Layer spans timed from outside the program.

The traced run is one extra subprocess per command.  It imports every
``repro`` module, wraps each layer's public entry points in timing
wrappers, and calls :func:`repro.experiments.runner.main` with the
command's argv.  No code under ``src/`` knows it is being traced.

A wrapper records a span -- name, start, end, parent span and a few
attributes -- each time its function is called.  Wrappers are
installed by identity: every module global and class attribute that
*is* the original function is rebound, so ``from x import f`` call
sites are traced as well as ``x.f`` ones.  References the program
captured before patching (default arguments, prebuilt partials) are not
rebound; none of the targets below is held that way.

Run as a script::

    python benchmarks/e2e/tracing.py SPANS.json -- all --fast --seed 0 ...

it writes the spans, and whether numpy got loaded, to ``SPANS.json``
and exits with the command's exit code.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Describe = Callable[[tuple, dict, Any], Dict[str, Any]]


def _experiment(args, kwargs, result):
    spec = args[0] if args else kwargs["spec_dict"]
    return {"experiment": spec["experiment"]}


def _cache_hit(args, kwargs, result):
    return {"hit": result is not None}


def _configurations(args, kwargs, result):
    return {"configurations": result.configurations}


def _events(args, kwargs, result):
    execution = args[0] if args else kwargs["execution"]
    return {"events": len(execution)}


def _check_stats(args, kwargs, result):
    stats = result.stats
    frontier = (stats.get("engine") or {}).get("frontier") or {}
    return {
        "configurations": stats.get("configurations") or 0,
        "frontier_batches": frontier.get("frontier_batches", 0),
        "fallback_expansions": frontier.get("fallback_expansions", 0),
    }


#: (span name, module, attribute path, attribute extractor).  One span
#: name may cover several functions that do the same job.
TARGETS: Tuple[Tuple[str, str, str, Optional[Describe]], ...] = (
    ("runtime.plan", "repro.runtime.engine", "plan_tasks", None),
    ("runtime.merge", "repro.runtime.engine", "merge_outcomes", None),
    ("runtime.task", "repro.runtime.worker", "execute", _experiment),
    ("runtime.cache_get", "repro.runtime.cache", "ResultCache.get", _cache_hit),
    ("runtime.cache_put", "repro.runtime.cache", "ResultCache.put", None),
    ("runtime.code_version", "repro.runtime.cache", "code_version", None),
    ("campaign.compile", "repro.campaign.compiler", "compile_campaign", None),
    ("campaign.cell", "repro.campaign.cells", "run_cell", None),
    ("campaign.merge", "repro.campaign.merge", "merge_campaign", None),
    ("core.delivery", "repro.core.theorem51", "run_probabilistic_delivery", None),
    ("core.backlog", "repro.core.theorem41", "plant_backlog", None),
    ("core.attack", "repro.core.theorem31", "HeaderExhaustionAttack.run", None),
    ("datalink.run", "repro.datalink.system", "DataLinkSystem.run", None),
    ("datalink.spec", "repro.datalink.spec", "check_execution", _events),
    ("ioa.explore", "repro.ioa.exploration", "explore_station_states",
     _configurations),
    ("ioa.explore", "repro.ioa.exploration_parallel",
     "explore_station_states_parallel", _configurations),
    ("checker.check", "repro.checker.engine", "check_protocol", _check_stats),
    ("checker.replay", "repro.checker.trace", "replay_counterexample", None),
)

#: The experiment registry's names; task time is reported per name.
EXPERIMENTS = (
    "ablation", "boundness", "headers", "backlog",
    "probabilistic", "hoeffding", "window", "transport",
)

#: Importing this module runs the whole reproduction.
SKIP_MODULES = ("repro.experiments.__main__",)


class Tracer:
    """Collects spans in memory; nesting follows the call stack."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    def wrap(self, name: str, func: Callable, describe: Optional[Describe]):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(spans),
                "name": name,
                "parent": stack[-1] if stack else None,
                "start": time.perf_counter(),
                "end": None,
                "attrs": {},
            }
            spans.append(span)
            stack.append(span["id"])
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if describe is not None:
                span["attrs"] = describe(args, kwargs, result)
            return result

        return wrapper


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for ``module:path``."""
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr, owner.__dict__[attr]


class Patch:
    """Installed wrappers; :meth:`restore` puts every original back."""

    def __init__(self) -> None:
        self.rebound: List[Tuple[Any, str, Any]] = []

    def rebind(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self.rebound.append((owner, attr, original))

    def restore(self) -> None:
        while self.rebound:
            owner, attr, original = self.rebound.pop()
            setattr(owner, attr, original)


def install(
    tracer: Tracer,
    targets: Iterable[Tuple[str, str, str, Optional[Describe]]] = TARGETS,
    prefix: str = "repro",
) -> Patch:
    """Wrap every target; rebinds by identity in all ``prefix`` modules.

    Import the modules first (:func:`import_all`): a module imported
    after this call binds the original functions.
    """
    patch = Patch()
    wrappers: Dict[int, Any] = {}
    for name, module_name, path, describe in targets:
        owner, attr, original = _resolve(module_name, path)
        wrapper = tracer.wrap(name, original, describe)
        wrappers[id(original)] = (original, wrapper)
        patch.rebind(owner, attr, original, wrapper)
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == prefix or module_name.startswith(prefix + ".")
        ):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                patch.rebind(module, attr, value, hit[1])
    return patch


def import_all(package: str = "repro", skip: Iterable[str] = SKIP_MODULES) -> None:
    """Import every module of ``package`` except those in ``skip``."""
    root = importlib.import_module(package)
    skipped = set(skip)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        if info.name not in skipped:
            importlib.import_module(info.name)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------

def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children.get(span["id"], ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span["id"]] = (end - start) - covered
    return result


def _outermost(spans: List[Dict[str, Any]], name: str) -> List[Dict[str, Any]]:
    """Spans called ``name`` with no ancestor of the same name."""
    by_id = {span["id"]: span for span in spans}

    def nested(span):
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"] == name:
                return True
            parent = by_id[parent]["parent"]
        return False

    return [s for s in spans if s["name"] == name and not nested(s)]


class _Layer:
    """Per-name sums over one traced pass."""

    def __init__(self, spans: List[Dict[str, Any]]) -> None:
        self.spans = spans
        self.own = self_times(spans)

    def self_s(self, name: str) -> float:
        return sum(self.own[s["id"]] for s in self.spans if s["name"] == name)

    def calls(self, name: str) -> int:
        return len(_outermost(self.spans, name))

    def attr(self, name: str, key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in _outermost(self.spans, name))

    def duration(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in _outermost(self.spans, name))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    cold: List[Dict[str, Any]], warm: List[Dict[str, Any]]
) -> Dict[str, float]:
    """Per-layer metrics from one traced cold pass and one warm pass.

    Every ``*_s`` time is a *self* time (children excluded), except
    ``experiments.*_s``, which is the whole task time of each
    experiment.  The cache-read side of the runtime comes from the warm
    pass, where it is the work; everything else from the cold pass.
    """
    c, w = _Layer(cold), _Layer(warm)
    tasks = [s for s in cold if s["name"] == "runtime.task"]
    # Task time: runtime tasks, or the checker's searches when the
    # command has no runtime (check).
    work = tasks or _outermost(cold, "checker.check")
    work_s = sum(s["end"] - s["start"] for s in work)
    gets = w.calls("runtime.cache_get")
    metrics = {
        "runtime.plan_s": c.self_s("runtime.plan"),
        "runtime.cache_get_s": w.self_s("runtime.cache_get"),
        "runtime.cache_get_calls": gets,
        "runtime.cache_hit_ratio": _ratio(w.attr("runtime.cache_get", "hit"), gets),
        "runtime.code_version_s": w.self_s("runtime.code_version"),
        "runtime.merge_s": w.self_s("runtime.merge"),
        "runtime.cache_put_s": c.self_s("runtime.cache_put"),
        "runtime.task_self_s": c.self_s("runtime.task"),
        "runtime.tasks": len(tasks),
    }
    for name in EXPERIMENTS:
        metrics[f"experiments.{name}_s"] = sum(
            s["end"] - s["start"]
            for s in tasks
            if s["attrs"].get("experiment") == name
        )
    metrics.update({
        "campaign.compile_s": c.self_s("campaign.compile"),
        "campaign.cell_s": c.self_s("campaign.cell"),
        "campaign.cells": c.calls("campaign.cell"),
        "campaign.merge_s": c.self_s("campaign.merge"),
        "core.delivery_s": c.self_s("core.delivery"),
        "core.delivery_calls": c.calls("core.delivery"),
        "core.backlog_s": c.self_s("core.backlog"),
        "core.backlog_calls": c.calls("core.backlog"),
        "core.attack_s": c.self_s("core.attack"),
        "datalink.run_s": c.self_s("datalink.run"),
        "datalink.run_calls": c.calls("datalink.run"),
        "datalink.spec_s": c.self_s("datalink.spec"),
        "datalink.spec_calls": c.calls("datalink.spec"),
        "datalink.spec_events": c.attr("datalink.spec", "events"),
        "ioa.explore_s": c.self_s("ioa.explore"),
        "ioa.explore_calls": c.calls("ioa.explore"),
        "ioa.explore_configurations": c.attr("ioa.explore", "configurations"),
        "ioa.explore_configs_per_s": _ratio(
            c.attr("ioa.explore", "configurations"), c.duration("ioa.explore")
        ),
        "checker.check_s": c.self_s("checker.check"),
        "checker.configurations": c.attr("checker.check", "configurations"),
        "checker.configs_per_s": _ratio(
            c.attr("checker.check", "configurations"), c.self_s("checker.check")
        ),
        "checker.frontier_batches": c.attr("checker.check", "frontier_batches"),
        "checker.fallback_expansions": c.attr(
            "checker.check", "fallback_expansions"
        ),
        "checker.replay_s": c.self_s("checker.replay"),
        "trace.coverage": _ratio(
            work_s - sum(c.own[s["id"]] for s in work), work_s
        ),
    })
    return metrics


def main(argv: List[str]) -> int:
    """Script entry: ``tracing.py SPANS.json -- ARGV...``."""
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- ARGV...", file=sys.stderr)
        return 2
    out_path, command = argv[0], argv[2:]
    # The repro modules import numpy lazily, so whether it is loaded at
    # the end says whether the command body needed it.
    import_all()
    from repro.experiments.runner import main as runner_main

    tracer = Tracer()
    patch = install(tracer)
    try:
        code = runner_main(command)
    except SystemExit as exc:  # argparse and --system errors exit
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        patch.restore()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(
            {"numpy_loaded": "numpy" in sys.modules, "spans": tracer.spans},
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
