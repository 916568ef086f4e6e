"""Experiment E1: Theorem 2.1 -- boundness vs the state product.

    Any data link protocol ``A = (A^t, A^r)`` is ``k_t k_r``-bounded.

For each finite(-ish) protocol we (a) enumerate the station states
reachable without a forged delivery under an adversarial channel
abstraction (an upper bound on ``k_t``/``k_r``; see
:mod:`repro.ioa.exploration`), and (b) measure boundness empirically:
sample semi-valid configurations produced by randomized lossy prefixes
and record the worst optimal-channel extension cost.  The theorem
predicts ``boundness <= k_t * k_r`` for every row.

The theorem's pigeonhole only counts station pairs along an extension
up to the pending message's delivery, where ``rm <= sm`` holds, so the
search stops at forged deliveries.  That makes every row's search
exhaustive within 16 configurations.  Without the cut, capacity
flooding's receiver states after a forgery never run out under the
set-abstraction.

The sequence-number protocol is included with the exploration's
message budget acting as the truncation: its state count grows with the
number of messages (headers must -- that is Theorem 3.1), and the
boundness stays tiny, illustrating how weak the product bound is for
protocols that pay in headers instead of retransmissions.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.analysis.tables import Table
from repro.campaign.spec import CampaignSpec, CellGroup
from repro.core.boundness import verify_theorem21
from repro.datalink.alternating_bit import make_alternating_bit
from repro.datalink.flooding import make_capacity_flooding
from repro.datalink.sequence import make_sequence_protocol
from repro.experiments.base import ExperimentResult

EXP_ID = "E1"
NAME = "boundness"
TITLE = "Theorem 2.1: measured boundness never exceeds k_t * k_r"

#: E1 runs as one whole-experiment cell (its protocol rows share the
#: exploration caches, so splitting them into shards buys nothing).
CAMPAIGN = CampaignSpec(
    name=NAME,
    title=TITLE,
    exp_id=EXP_ID,
    experiment=NAME,
    groups=[CellGroup(cell="experiment", whole=True)],
)

# Exploration visit budget, in both modes.  It is a guard: every row's
# forgery-free region is exhausted within 16 configurations, and a row
# that reached the budget would fail its check, since a truncated
# search bounds nothing.
MAX_CONFIGURATIONS = 60_000


def protocol_rows(fast: bool) -> List[Tuple[str, Callable, int]]:
    """(label, pair factory, exploration message budget) rows."""
    rows: List[Tuple[str, Callable, int]] = [
        ("alternating-bit", make_alternating_bit, 3),
        ("capacity-flood(K=2,B=1)", lambda: make_capacity_flooding(2, 1), 2),
        ("sequence-number", make_sequence_protocol, 2),
    ]
    if not fast:
        rows.insert(
            2,
            (
                "capacity-flood(K=3,B=1)",
                lambda: make_capacity_flooding(3, 1),
                2,
            ),
        )
    return rows


def run(fast: bool = False, seed: int = 0) -> ExperimentResult:
    """Execute E1 and report the per-protocol verdicts."""
    result = ExperimentResult(exp_id=EXP_ID, title=TITLE)
    table = Table(
        [
            "protocol",
            "k_t(<=)",
            "k_r(<=)",
            "k_t*k_r",
            "boundness",
            "samples",
            "holds",
        ]
    )
    prefixes = (0, 1, 2) if fast else (0, 1, 2, 4, 6)
    seeds = tuple(range(seed, seed + (2 if fast else 4)))

    for label, factory, budget in protocol_rows(fast):
        verdict = verify_theorem21(
            factory,
            boundness_kwargs={
                "prefix_lengths": prefixes,
                "seeds": seeds,
                "max_steps": 5_000,
            },
            exploration_kwargs={
                "max_messages": budget,
                "max_configurations": MAX_CONFIGURATIONS,
            },
        )
        table.add_row(
            [
                label,
                verdict.exploration.k_t,
                verdict.exploration.k_r,
                verdict.state_product,
                verdict.boundness,
                len(verdict.report.samples),
                verdict.holds,
            ]
        )
        result.checks[f"{label}: boundness <= state product"] = verdict.holds
        if verdict.exploration.truncated:
            result.notes.append(
                f"{label}: exploration truncated at the configuration "
                "budget; k_t/k_r cover only the explored region, so the "
                "row is not verified"
            )

    result.tables.append(table)
    result.notes.append(
        "k_t/k_r are over-approximations of the station states "
        "reachable without a forged delivery (channel set-abstraction), "
        "so the product is an upper bound -- the safe direction for "
        "verifying the theorem."
    )
    return result
