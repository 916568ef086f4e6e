"""Experiment L2: the transport-layer remark (Section 1), measured.

    "Finally, we remark that all our results can be extended to
    transport layer protocols over non-FIFO virtual links."

The virtual link (:mod:`repro.channels.virtual_link`) is a multi-hop
store-and-forward path whose end-to-end behaviour reorders emergently.
This experiment runs the protocol zoo host-to-host over it and shows
the data-link results reappear verbatim one layer up:

* the naive sequence-number transport is reliable;
* the alternating-bit transport loses safety to mere racing;
* the fixed-header modular transport is *forged* by the unchanged
  Theorem 3.1 adversary acting as the network;
* the n-header transport escapes the same adversary.
"""

from __future__ import annotations

import random
from typing import Callable, Tuple

from repro.analysis.tables import Table
from repro.channels.virtual_link import VirtualLinkChannel
from repro.core.theorem31 import HeaderExhaustionAttack
from repro.datalink.alternating_bit import make_alternating_bit
from repro.datalink.sequence import make_sequence_protocol
from repro.datalink.sequence_mod import make_modular_sequence
from repro.datalink.spec import check_execution
from repro.datalink.system import DataLinkSystem
from repro.experiments.base import ExperimentResult
from repro.ioa.actions import Direction

EXP_ID = "L2"
TITLE = "transport remark: the lower bounds port to virtual links"

HOPS = 4


def host_to_host(
    factory: Callable[[], Tuple], seed: int, p_advance: float = 0.45
) -> DataLinkSystem:
    """Compose a protocol pair over a two-way multi-hop virtual link."""
    sender, receiver = factory()
    return DataLinkSystem(
        sender,
        receiver,
        chan_t2r=VirtualLinkChannel(
            Direction.T2R, hops=HOPS, p_advance=p_advance,
            rng=random.Random(seed),
        ),
        chan_r2t=VirtualLinkChannel(
            Direction.R2T, hops=HOPS, p_advance=p_advance,
            rng=random.Random(seed + 1),
        ),
    )


def run(fast: bool = False, seed: int = 0) -> ExperimentResult:
    """Execute L2 over the 4-hop virtual link."""
    result = ExperimentResult(exp_id=EXP_ID, title=TITLE)
    n = 15 if fast else 25
    table = Table(
        ["transport protocol", "mode", "outcome", "detail"]
    )

    # 1. Naive transport: reliable end to end.
    system = host_to_host(make_sequence_protocol, seed)
    stats = system.run(["m"] * n, max_steps=200_000)
    report = check_execution(system.execution)
    table.add_row(
        ["sequence-number", "deliver",
         "valid" if report.valid and stats.completed else "FAILED",
         f"{stats.delivered}/{n} in order"]
    )
    result.checks["naive transport reliable over virtual link"] = (
        stats.completed and report.valid
    )

    # 2. Alternating bit: racing datagrams alias the bit.
    seeds = range(4 if fast else 6)
    broken = 0
    for attempt in seeds:
        system = host_to_host(
            make_alternating_bit, seed + attempt, p_advance=0.35
        )
        system.run(["m"] * (2 * n), max_steps=50_000)
        if not check_execution(system.execution).ok:
            broken += 1
    table.add_row(
        ["alternating-bit", "deliver",
         f"safety broken {broken}/{len(list(seeds))}",
         "racing copies alias the bit"]
    )
    result.checks["ABP transport breaks under racing"] = broken > 0

    # 3. Fixed-header transport vs the network adversary.
    system = host_to_host(lambda: make_modular_sequence(4), seed)
    outcome = HeaderExhaustionAttack(system, max_rounds=24).run()
    table.add_row(
        ["modular-seq(M=4)", "attack",
         "FORGED" if outcome.forged else "survived",
         f"{outcome.messages_spent} messages spent"]
    )
    result.checks["Theorem 3.1 forgery ports to transport"] = (
        outcome.forged and outcome.violation_found
    )

    # 4. The n-header escape, one layer up.
    system = host_to_host(make_sequence_protocol, seed)
    outcome = HeaderExhaustionAttack(system, max_rounds=8).run()
    table.add_row(
        ["sequence-number", "attack",
         "FORGED" if outcome.forged else "survived",
         "fresh header per segment"]
    )
    result.checks["n-header transport escapes the attack"] = (
        not outcome.forged
    )

    result.tables.append(table)
    result.notes.append(
        f"virtual link: {HOPS} store-and-forward hops with independent "
        "random per-stage delays; reordering is emergent, no hop "
        "misbehaves individually."
    )
    return result
