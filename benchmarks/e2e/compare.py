"""Compare two sets of benchmark runs: parent commit against a change.

::

    python -m benchmarks.e2e compare PARENT_DIR CHANGE_DIR

Each directory holds the ``--json`` outputs of runs made at one commit,
with the same seed and settings on both sides.  Files pair up in name
order, so name them so that pair *i* is the *i*-th run of each side,
and alternate which side runs first.  For every (workload, end-to-end
metric) the comparison prints both sides' median and quartiles, the
share of pairs the change won, and one verdict:

* ``improved`` -- the change wins at least nine tenths of at least ten
  pairs (ties count for neither side), and the medians differ by more
  than the parent's interquartile range;
* ``worse`` -- the change's median is worse than the parent's by more
  than the metric's bound (a share of the parent's median from
  ``BENCHMARK.json``; for ``fail_ratio`` an absolute 0);
* ``unresolved`` -- the run-to-run spread of either side is wider than
  the bound, unless every change run beats every parent run;
* ``unchanged`` -- otherwise.

Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import pathlib
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from benchmarks.e2e.bench import load_benchmark, summarize
from benchmarks.e2e.workloads import FAIL_RATIO_BOUND

MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9


@dataclass
class Verdict:
    verdict: str
    parent: List[float]
    change: List[float]
    wins: float


def judge(parent: Sequence[float], change: Sequence[float], bound: float,
          better: str = "lower", absolute: bool = False) -> Verdict:
    """The verdict for one metric; ``parent[i]`` pairs with ``change[i]``.

    ``bound`` is a share of the parent's median, or an absolute
    difference when ``absolute``.
    """
    sign = 1.0 if better == "lower" else -1.0
    p, c = summarize(list(parent)), summarize(list(change))
    pm, cm = p["value"], c["value"]
    pairs = list(zip(parent, change))
    wins = sum(1 for old, new in pairs if sign * (old - new) > 0)
    share = wins / len(pairs)
    allowed = bound if absolute else bound * abs(pm)
    worse_by = sign * (cm - pm)
    if (len(pairs) >= MIN_PAIRS_FOR_GAIN and share >= WIN_SHARE_FOR_GAIN
            and -worse_by > p["q3"] - p["q1"]):
        verdict = "improved"
    elif worse_by > allowed:
        verdict = "worse"
    elif max(p["q3"] - p["q1"], c["q3"] - c["q1"]) > allowed and not all(
        sign * (old - new) > 0 for old in parent for new in change
    ):
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return Verdict(verdict, list(parent), list(change), share)


def load_runs(directory: pathlib.Path) -> List[Dict]:
    """Every benchmark output in ``directory``, in file-name order."""
    runs = []
    for path in sorted(directory.glob("*.json")):
        with open(path, encoding="utf-8") as handle:
            runs.append(json.load(handle))
    if not runs:
        raise SystemExit(f"no benchmark outputs (*.json) in {directory}")
    return runs


def _series(runs: List[Dict], workload: str, metric: str) -> List[float]:
    values = []
    for run in runs:
        result = run["workloads"].get(workload)
        if result is None:
            continue
        if metric == "fail_ratio":
            values.append(result["fail_ratio"])
        elif metric in result.get("metrics", {}):
            values.append(result["metrics"][metric]["value"])
    return values


def compare(parent_runs: List[Dict],
            change_runs: List[Dict]) -> Dict[str, Dict[str, Verdict]]:
    """``{workload: {metric: Verdict}}`` for every shared series."""
    spec = load_benchmark()
    metrics = [(m["name"], m["bound"], m["better"], False) for m in spec["end_to_end"]]
    metrics.append(("fail_ratio", FAIL_RATIO_BOUND, "lower", True))
    workloads = [w["name"] for w in spec["workloads"]]
    table: Dict[str, Dict[str, Verdict]] = {}
    for workload in workloads:
        for name, bound, better, absolute in metrics:
            parent = _series(parent_runs, workload, name)
            change = _series(change_runs, workload, name)
            if parent and change:
                table.setdefault(workload, {})[name] = judge(
                    parent, change, bound, better, absolute
                )
    return table


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python -m benchmarks.e2e compare PARENT_DIR CHANGE_DIR",
              file=sys.stderr)
        return 2
    parent = load_runs(pathlib.Path(args[0]))
    change = load_runs(pathlib.Path(args[1]))
    pairs = min(len(parent), len(change))
    print(f"{len(parent)} parent runs, {len(change)} change runs, {pairs} pairs")
    if pairs < MIN_PAIRS_FOR_GAIN:
        print(f"note: fewer than {MIN_PAIRS_FOR_GAIN} pairs; no gain can be claimed")
    table = compare(parent, change)
    print(f"{'workload':<16} {'metric':<12} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'won':>5}  verdict")
    worse = False
    for workload, rows in table.items():
        for metric, v in rows.items():
            sides = ["{value:.4g} [{q1:.4g}, {q3:.4g}]".format(**summarize(values))
                     for values in (v.parent, v.change)]
            print(f"{workload:<16} {metric:<12} {sides[0]:>30} {sides[1]:>30} "
                  f"{v.wins:>5.0%}  {v.verdict}")
            worse |= v.verdict == "worse"
    return 1 if worse else 0
