"""Experiment E2: Theorem 3.1 -- the header-exhaustion forgery.

    Any ``M_f``-bounded data link protocol for sending ``n`` messages
    requires ``n`` headers.

The executable adversary (:mod:`repro.core.theorem31`) is run against
every protocol in the zoo.  The theorem predicts:

* every in-model protocol with a bounded header alphabet is forged
  (driven to an invalid execution with ``rm = sm + 1``) after at most a
  handful of legitimate messages;
* the naive sequence-number protocol, which spends one fresh header per
  message, is never forged -- the deficit each round names a header the
  channel has never seen;
* the oracle-mode flooding protocol is also not forged, but for an
  out-of-model reason: its channel oracle lets it adapt thresholds to
  the hoard, which no I/O-automaton protocol of the paper's model can
  do.  The row is reported as a demonstration of *why* the theorem's
  stations must be channel-oblivious.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.analysis.tables import Table
from repro.campaign.spec import CampaignSpec, CellGroup
from repro.core.proof_bounds import identity_f, theorem31_total_budget
from repro.core.theorem31 import HeaderExhaustionAttack
from repro.datalink.alternating_bit import make_alternating_bit
from repro.datalink.flooding import make_capacity_flooding, make_flooding
from repro.datalink.sequence import make_sequence_protocol
from repro.datalink.sequence_mod import make_modular_sequence
from repro.datalink.system import make_system
from repro.experiments.base import ExperimentResult
from repro.ioa.actions import Direction
from repro.ioa.exploration import explore_station_states

EXP_ID = "E2"
NAME = "headers"
TITLE = "Theorem 3.1: fixed-header protocols are forged, n-header escapes"

#: E2 runs as one whole-experiment cell (the attack rows are cheap;
#: the shared exploration dominates, and it does not shard by row).
CAMPAIGN = CampaignSpec(
    name=NAME,
    title=TITLE,
    exp_id=EXP_ID,
    experiment=NAME,
    groups=[CellGroup(cell="experiment", whole=True)],
)

# Per-row visit cap for the header-growth explorations below.  The
# counts are exact when the run completes and lower bounds when it
# truncates; distinct headers surface within the first few thousand
# configurations, so a modest cap keeps the table cheap.
GROWTH_BUDGET = 20_000


def protocol_rows(
    fast: bool,
) -> List[Tuple[str, Callable, bool, int]]:
    """(label, factory, expect_forged, max_rounds) rows."""
    rows: List[Tuple[str, Callable, bool, int]] = [
        ("alternating-bit (2 hdrs)", make_alternating_bit, True, 16),
        (
            "capacity-flood(K=2,B=2) (4 hdrs)",
            lambda: make_capacity_flooding(2, 2),
            True,
            24,
        ),
        (
            "capacity-flood(K=3,B=4) (6 hdrs)",
            lambda: make_capacity_flooding(3, 4),
            True,
            32,
        ),
        (
            "modular-seq(M=4) (8 hdrs)",
            lambda: make_modular_sequence(4),
            True,
            24,
        ),
        ("sequence-number (n hdrs)", make_sequence_protocol, False, 12),
        (
            "oracle-flood(K=3) [outside model]",
            lambda: make_flooding(3),
            False,
            10,
        ),
    ]
    if fast:
        rows = [rows[0], rows[2], rows[3]]
    return rows


def run(fast: bool = False, seed: int = 0) -> ExperimentResult:
    """Execute E2 and report attack outcomes per protocol."""
    del seed  # the attack is fully deterministic
    result = ExperimentResult(exp_id=EXP_ID, title=TITLE)
    table = Table(
        [
            "protocol",
            "forged",
            "DL1 violation",
            "messages spent",
            "headers used",
            "stale pool",
            "rounds",
        ]
    )
    for label, factory, expect_forged, max_rounds in protocol_rows(fast):
        sender, receiver = factory()
        system = make_system(sender, receiver)
        attack = HeaderExhaustionAttack(system, max_rounds=max_rounds)
        outcome = attack.run()
        table.add_row(
            [
                label,
                outcome.forged,
                outcome.violation_found,
                outcome.messages_spent,
                outcome.headers_observed,
                outcome.pool.total(),
                outcome.rounds,
            ]
        )
        result.checks[
            f"{label}: forged == {expect_forged}"
        ] = outcome.forged == expect_forged
        if outcome.forged:
            result.checks[
                f"{label}: forgery detected by independent DL1 checker"
            ] = outcome.violation_found

    result.tables.append(table)

    # The proof's universal bookkeeping vs the measured attack: the
    # inductive construction must work for *every* protocol at once,
    # so it reserves factorially many copies; the operational attack
    # reads one concrete protocol's needs off failed replays.
    budget_table = Table(
        ["k (headers)", "proof budget (copies)", "measured pool",
         "measured/proof"]
    )
    measured_pools = {
        2: None,  # alternating bit
        3: None,  # capacity flood K=3
    }
    for label, factory, expect_forged, max_rounds in protocol_rows(fast):
        if not expect_forged:
            continue
        sender, receiver = factory()
        system = make_system(sender, receiver)
        outcome = HeaderExhaustionAttack(system, max_rounds=max_rounds).run()
        if outcome.forged and outcome.headers_observed in measured_pools:
            measured_pools[outcome.headers_observed] = outcome.pool.total()
    for k, pool in sorted(measured_pools.items()):
        if pool is None:
            continue
        proof = theorem31_total_budget(k, identity_f)
        budget_table.add_row([k, proof, pool, pool / proof])
        result.checks[
            f"k={k}: operational attack beats the proof's budget"
        ] = pool < proof
    result.tables.append(budget_table)

    # State-space view of the same dichotomy: enumerate reachable
    # station states per injection budget and count the distinct
    # forward-channel headers.  A fixed-header protocol's wire alphabet
    # saturates at 2K no matter how many messages are injected (the
    # hoard the forgery feeds on); the sequence-number protocol mints a
    # fresh header per message -- the ``n`` headers of the theorem.
    growth_table = Table(
        ["protocol", "messages", "wire headers", "k_t(<=)", "k_r(<=)",
         "configs"]
    )
    # Three budgets in every mode: the flood's alphabet only saturates
    # once the injections exceed its K = 2 data phases, so showing the
    # plateau needs a point past K (the caps keep even fast mode cheap).
    budgets = (1, 2, 3)
    for label, factory, saturates in [
        (
            "capacity-flood(K=2,B=1)",
            lambda: make_capacity_flooding(2, 1),
            True,
        ),
        ("sequence-number", make_sequence_protocol, False),
    ]:
        header_counts = []
        for budget in budgets:
            sender, receiver = factory()
            exploration = explore_station_states(
                sender,
                receiver,
                ["m"],
                max_messages=budget,
                max_configurations=GROWTH_BUDGET,
            )
            headers = {
                packet.header
                for packet in exploration.packet_values[Direction.T2R]
            }
            header_counts.append(len(headers))
            growth_table.add_row(
                [
                    label,
                    budget,
                    len(headers),
                    exploration.k_t,
                    exploration.k_r,
                    exploration.configurations,
                ]
            )
        if saturates:
            result.checks[
                f"{label}: wire header alphabet saturates (fixed headers)"
            ] = (
                header_counts[-1] == header_counts[-2]
                and header_counts[-1] <= 2
            )
        else:
            result.checks[
                f"{label}: every extra message mints a fresh wire header"
            ] = all(
                later > earlier
                for earlier, later in zip(header_counts, header_counts[1:])
            )
    result.tables.append(growth_table)

    result.notes.append(
        "wire headers = distinct forward-channel packet headers over "
        "the explored region (a lower bound where the exploration "
        "truncates); the saturating alphabet is what Theorem 3.1's "
        "adversary exhausts, the growing one is its escape hatch."
    )
    result.notes.append(
        "forged = the adversary produced an execution with rm = sm + 1 "
        "from stale copies alone; messages spent is the attack's "
        "legitimate-traffic budget (the i <= k < n of the proof)."
    )
    result.notes.append(
        "proof budget = basis copies k!f(k+1)^k - k + 1 plus k times "
        "the step-0 invariant (f = identity), from "
        "repro.core.proof_bounds; the gap is the price of universal "
        "quantification."
    )
    result.notes.append(
        "the oracle-flood row is outside the paper's model (stations "
        "read the channel); its survival shows the theorem's reliance "
        "on channel-oblivious stations, not a counterexample."
    )
    return result
