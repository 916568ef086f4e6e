"""Experiment E3: Theorem 4.1 -- packet cost is linear in the backlog.

    Any protocol for delivering ``n`` messages using ``k < n`` headers
    cannot be ``P_f``-bounded for any monotonically increasing ``f``
    with ``f(l) <= floor(l/k)``.

Equivalently: with ``l`` packets in transit, delivering the next
message costs more than ``floor(l/k)`` packets (or the protocol can be
forged).  [Afe88]'s three-header protocol achieves ``O(l)``, so the
truth is ``Theta(l)`` with the constant pinched between ``1/k`` and a
small multiple of it.

This experiment traces cost-vs-backlog curves for the flooding protocol
at several phase counts, fits the slope, and checks:

* the curve is linear (R^2 close to 1);
* every measured point respects the ``floor(l/k)`` lower bound, with
  ``k`` the number of distinct forward packet values actually used;
* the fitted slope is within a small constant of ``1/k`` (tightness,
  [Afe88]).

It also runs the theorem's dichotomy (:func:`repro.core.run_dichotomy`)
at a few backlog levels: fixed-header protocols either exceed the bound
or get forged, while the naive protocol's cost stays O(1) -- the escape
that costs it n headers.

Runtime decomposition: one shard per cost-vs-backlog curve (each phase
count is an independent sweep), one per dichotomy backlog level, and
one for the naive protocol's escape probe; :func:`merge` fits the
curves and applies the shape checks.  Everything here is
deterministic, so the shard seed is unused.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List

from repro.analysis.growth import fit_linear
from repro.analysis.tables import Table
from repro.campaign.spec import CampaignSpec, CellGroup
from repro.core.theorem41 import (
    probe_backlog_cost,
    probe_backlog_costs,
    run_dichotomy,
)
from repro.datalink.alternating_bit import make_alternating_bit
from repro.datalink.flooding import make_flooding
from repro.datalink.sequence import make_sequence_protocol
from repro.experiments.base import (
    ExperimentResult,
    engine_metrics,
    resolve_trial_engine,
    run_sharded,
)

EXP_ID = "E3"
NAME = "backlog"
TITLE = "Theorem 4.1: cost per message grows as backlog/k (tight)"

SEQUENCE_BACKLOG = 32

#: The experiment's shape as data: one group per shard family (cost
#: curves, dichotomy levels, the naive escape probe).  ``shards(fast)``
#: is this grid's expansion, so the spec is the single source of truth
#: for the decomposition.
CAMPAIGN = CampaignSpec(
    name=NAME,
    title=TITLE,
    exp_id=EXP_ID,
    experiment=NAME,
    groups=[
        CellGroup(
            cell="experiment",
            label="cost curves",
            template="curve-K={phases}",
            params={"kind": "curve"},
            grid={"phases": {"fast": [2, 3], "full": [2, 3, 6]}},
        ),
        CellGroup(
            cell="experiment",
            label="dichotomy",
            template="dichotomy-l={level}",
            params={"kind": "dichotomy"},
            grid={"level": {"fast": [6, 12], "full": [6, 12, 24]}},
        ),
        CellGroup(
            cell="experiment",
            label="naive escape",
            template="sequence",
            params={"kind": "sequence"},
        ),
    ],
)


def backlog_levels(fast: bool) -> List[int]:
    """The swept backlog sizes for the cost curves."""
    return [0, 8, 32, 128] if fast else [0, 8, 32, 128, 512, 1024]


def phase_counts(fast: bool) -> List[int]:
    """The flooding phase counts (the campaign's phases axis)."""
    return [p["phases"] for p in CAMPAIGN.groups[0].points(fast)]


def dichotomy_levels(fast: bool) -> List[int]:
    """Backlog levels at which the dichotomy is exercised."""
    return [p["level"] for p in CAMPAIGN.groups[1].points(fast)]


def shards(fast: bool) -> List[Dict[str, Any]]:
    """Curves, dichotomy levels and the naive escape, one shard each."""
    return CAMPAIGN.expand_params(fast)


def _probe_dict(probe) -> Dict[str, Any]:
    return {
        "headers": probe.headers,
        "backlog_actual": probe.backlog_actual,
        "extension_packets": probe.extension_packets,
        "lower_bound": probe.lower_bound,
        "ratio": probe.ratio,
    }


def run_shard(
    params: Dict[str, Any], fast: bool, seed: int
) -> Dict[str, Any]:
    """Execute one curve sweep, dichotomy level or escape probe.

    Every kind plants its backlogs on the pumping tier the gate picks,
    and records that tier (and any refusal) in its metrics.
    """
    del seed  # deterministic
    kind = params["kind"]
    tier, refusal = resolve_trial_engine(pumping=True)
    metrics = engine_metrics({kind: (tier, refusal)})
    if kind == "curve":
        phases = int(params["phases"])
        factory = lambda: make_flooding(phases)  # noqa: E731
        probes = [
            _probe_dict(probe)
            for probe in probe_backlog_costs(
                factory, backlog_levels(fast), engine=tier
            )
        ]
        return {
            "kind": kind,
            "phases": phases,
            "probes": probes,
            "metrics": {
                **metrics,
                "packets": sum(p["extension_packets"] for p in probes),
            },
        }
    if kind == "dichotomy":
        level = int(params["level"])
        rows = {}
        for label, factory in (
            ("abp", make_alternating_bit),
            ("flood", lambda: make_flooding(3)),
        ):
            outcome = run_dichotomy(factory, level, engine=tier)
            rows[label] = {
                "probe": _probe_dict(outcome.probe),
                "exceeded_bound": outcome.exceeded_bound,
                "forged": outcome.forged,
                "theorem_confirmed": outcome.theorem_confirmed,
            }
        return {"kind": kind, "level": level, **rows, "metrics": metrics}
    if kind == "sequence":
        probe = probe_backlog_cost(
            make_sequence_protocol, SEQUENCE_BACKLOG, engine=tier
        )
        return {
            "kind": kind, "probe": _probe_dict(probe), "metrics": metrics
        }
    raise ValueError(f"unknown backlog shard kind {kind!r}")


def merge(
    payloads: List[Dict[str, Any]], fast: bool, seed: int
) -> ExperimentResult:
    """Fit the curves and apply the dichotomy/escape checks."""
    del fast, seed
    result = ExperimentResult(exp_id=EXP_ID, title=TITLE)

    curve_table = Table(
        ["protocol", "k", "backlog", "cost", "floor(l/k)", "cost/l"]
    )
    fit_table = Table(["protocol", "k", "slope", "1/k", "R^2"])

    for payload in (p for p in payloads if p["kind"] == "curve"):
        label = f"oracle-flood(K={payload['phases']})"
        points = []
        k_observed = payload["phases"]
        for probe in payload["probes"]:
            k_observed = probe["headers"]
            points.append(
                (probe["backlog_actual"], probe["extension_packets"])
            )
            curve_table.add_row(
                [
                    label,
                    probe["headers"],
                    probe["backlog_actual"],
                    probe["extension_packets"],
                    probe["lower_bound"],
                    probe["ratio"],
                ]
            )
            result.checks[
                f"{label} l={probe['backlog_actual']}: cost > floor(l/k)"
            ] = probe["extension_packets"] > probe["lower_bound"] or (
                probe["backlog_actual"] == 0
            )
        xs = [float(x) for x, _ in points]
        ys = [float(y) for _, y in points]
        fit = fit_linear(xs, ys)
        fit_table.add_row(
            [label, k_observed, fit.slope, 1.0 / k_observed, fit.r_squared]
        )
        result.checks[f"{label}: linear fit R^2 > 0.98"] = (
            fit.r_squared > 0.98
        )
        result.checks[
            f"{label}: slope within [1/k, 4/k] (tightness, [Afe88])"
        ] = (1.0 / k_observed) * 0.95 <= fit.slope <= 4.0 / k_observed

    # The dichotomy at a few levels, plus the naive protocol's escape.
    dich_table = Table(
        ["protocol", "backlog", "cost", "floor(l/k)", "exceeded", "forged"]
    )
    for payload in (p for p in payloads if p["kind"] == "dichotomy"):
        level = payload["level"]
        for label, name in (("alternating-bit", "abp"),
                            ("oracle-flood(K=3)", "flood")):
            row = payload[name]
            dich_table.add_row(
                [
                    label,
                    row["probe"]["backlog_actual"],
                    row["probe"]["extension_packets"],
                    row["probe"]["lower_bound"],
                    row["exceeded_bound"],
                    row["forged"],
                ]
            )
            result.checks[
                f"{label} l={level}: dichotomy holds"
            ] = row["theorem_confirmed"]

    for payload in (p for p in payloads if p["kind"] == "sequence"):
        probe = payload["probe"]
        dich_table.add_row(
            [
                "sequence-number",
                probe["backlog_actual"],
                probe["extension_packets"],
                probe["lower_bound"],
                probe["extension_packets"] > probe["lower_bound"],
                False,
            ]
        )
        result.checks[
            "sequence-number: O(1) cost despite backlog (n-header escape)"
        ] = 0 < probe["extension_packets"] <= 3

    result.tables.extend([curve_table, fit_table, dich_table])
    result.notes.append(
        "cost = sp^{t->r}(beta) of the optimal-channel extension "
        "delivering the next message; k = distinct forward packet "
        "values in use."
    )
    return result


def run(fast: bool = False, seed: int = 0) -> ExperimentResult:
    """Execute E3: cost-vs-backlog curves and the dichotomy table.

    Runs every shard in-process (same decomposition as the parallel
    runtime, so the output is identical either way).
    """
    return run_sharded(sys.modules[__name__], fast, seed)
