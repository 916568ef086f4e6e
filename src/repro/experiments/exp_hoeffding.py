"""Experiment E5: Theorem 5.4 -- the Hoeffding bound, empirically.

Lemmas 5.2 and 5.3 both lean on the Hoeffding tail bound

    ``Prob{ sum X_i <= alpha n } <= exp(-2 n (alpha - q)^2)``.

This experiment sweeps a grid of ``(n, q, alpha)``, computes the exact
binomial tail, and checks the bound dominates everywhere.  It also
tabulates the two derived quantities of Section 5 at the paper's
operating points: the Lemma 5.2 failure probability
``exp(-n q^2 / 4k^3)`` and ``eps_n = O(1/sqrt(n))``, demonstrating the
vanishing of the correction term.

Runtime decomposition: one shard per ``n`` (the exact binomial
summation is ``O(n)`` per grid point, so the largest ``n`` dominate
and parallelise cleanly); :func:`merge` reassembles the grid in
``n`` order and applies the shape checks.  The computation is exact --
no randomness -- so the shard seed is unused.
"""

from __future__ import annotations

import math
import sys
from typing import Any, Dict, List

from repro.analysis.tables import Table
from repro.campaign.spec import CampaignSpec, CellGroup
from repro.core.hoeffding import (
    epsilon_n,
    exact_binomial_tail,
    hoeffding_tail_bound,
    lemma52_failure_bound,
)
from repro.experiments.base import ExperimentResult, run_sharded

EXP_ID = "E5"
NAME = "hoeffding"
TITLE = "Theorem 5.4: Hoeffding bound dominates the exact binomial tail"

QS: List[float] = [0.2, 0.5, 0.8]
QS_FAST: List[float] = [0.2, 0.5]
FRACTIONS: List[float] = [0.25, 0.5, 0.75]
SECTION5_Q = 0.3
SECTION5_K = 3

#: The experiment's shape as data: one shard per sample size ``n``.
CAMPAIGN = CampaignSpec(
    name=NAME,
    title=TITLE,
    exp_id=EXP_ID,
    experiment=NAME,
    groups=[
        CellGroup(
            cell="experiment",
            label="Hoeffding grid",
            template="n={n}",
            grid={"n": {"fast": [50, 200], "full": [50, 200, 1000, 2000]}},
        )
    ],
)


def sample_sizes(fast: bool) -> List[int]:
    """The swept ``n`` values (the campaign's n axis)."""
    return [point["n"] for point in CAMPAIGN.groups[0].points(fast)]


def shards(fast: bool) -> List[Dict[str, Any]]:
    """One independent work unit per sample size ``n``."""
    return CAMPAIGN.expand_params(fast)


def run_shard(params: Dict[str, Any], fast: bool, seed: int) -> Dict[str, Any]:
    """Compute the exact/bounded tails for one ``n`` row block."""
    del seed  # exact computation, no randomness
    n = int(params["n"])
    qs = QS_FAST if fast else QS
    grid_rows = []
    for q in qs:
        for fraction in FRACTIONS:
            alpha = q * fraction
            exact = exact_binomial_tail(n, q, alpha)
            bound = hoeffding_tail_bound(n, q, alpha)
            grid_rows.append(
                {
                    "n": n,
                    "q": q,
                    "alpha": alpha,
                    "exact": exact,
                    "bound": bound,
                    "dominates": bound >= exact - 1e-12,
                }
            )
    eps = epsilon_n(n, SECTION5_Q, SECTION5_K)
    return {
        "n": n,
        "grid": grid_rows,
        "eps_n": eps,
        "lemma52": lemma52_failure_bound(n, SECTION5_Q, SECTION5_K),
        "metrics": {"grid_points": len(grid_rows)},
    }


def merge(
    payloads: List[Dict[str, Any]], fast: bool, seed: int
) -> ExperimentResult:
    """Reassemble the grid (payloads arrive in ``n`` order) and check."""
    del fast, seed
    result = ExperimentResult(exp_id=EXP_ID, title=TITLE)

    grid = Table(["n", "q", "alpha", "exact tail", "Hoeffding", "dominates"])
    all_dominate = True
    for payload in payloads:
        for row in payload["grid"]:
            all_dominate = all_dominate and row["dominates"]
            grid.add_row(
                [row["n"], row["q"], row["alpha"], row["exact"],
                 row["bound"], row["dominates"]]
            )
    result.checks["Hoeffding bound dominates on the whole grid"] = (
        all_dominate
    )

    section5 = Table(
        ["n", "q", "k", "eps_n", "Lemma 5.2 failure prob"]
    )
    for payload in payloads:
        section5.add_row(
            [payload["n"], SECTION5_Q, SECTION5_K, payload["eps_n"],
             payload["lemma52"]]
        )
    eps_values = [payload["eps_n"] for payload in payloads]
    result.checks["eps_n decreases in n (O(1/sqrt(n)))"] = all(
        earlier > later for earlier, later in zip(eps_values, eps_values[1:])
    )
    # eps_n * sqrt(n) should be constant.
    scaled = [
        eps * math.sqrt(payload["n"])
        for eps, payload in zip(eps_values, payloads)
    ]
    result.checks["eps_n * sqrt(n) is constant"] = (
        max(scaled) - min(scaled) < 1e-9
    )

    result.tables.extend([grid, section5])
    result.notes.append(
        "exact tails are computed by direct summation (log-space "
        "binomial terms); no Monte Carlo error in this table."
    )
    return result


def run(fast: bool = False, seed: int = 0) -> ExperimentResult:
    """Execute E5 over the (n, q, alpha) grid.

    Runs every shard in-process (same decomposition as the parallel
    runtime, so the output is identical either way).
    """
    return run_sharded(sys.modules[__name__], fast, seed)
