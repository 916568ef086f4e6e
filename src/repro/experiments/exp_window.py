"""Experiment L1 (library): what a correct non-FIFO data link buys.

Not a paper result -- the paper ends at the lower bounds.  This
experiment measures the upside the data link abstraction exists to
deliver once a protocol survives the non-FIFO channel:

* **throughput vs window**: steps per message for the selective-repeat
  window protocol under a delaying channel drops as the window widens
  (pipelining amortizes channel latency);
* **selective repeat vs Go-Back-N**: under a *reordering* channel the
  Go-Back-N receiver discards every out-of-order arrival and pays for
  it in retransmissions, while selective repeat buffers them --
  the classic trade of receiver state for forward-channel packets.

Shape checks: throughput improves monotonically-ish with the window
(W=8 at least halves W=1's steps/message), and selective repeat sends
fewer forward packets than Go-Back-N at equal window under reordering.
"""

from __future__ import annotations

from repro.analysis.tables import Table
from repro.channels.adversary import FairAdversary
from repro.datalink.gobackn import make_gobackn
from repro.datalink.spec import check_execution
from repro.datalink.system import make_system
from repro.datalink.window import make_window_protocol
from repro.experiments.base import ExperimentResult

EXP_ID = "L1"
TITLE = "library: pipelining and the selective-repeat/Go-Back-N trade"


def _delivery_stats(factory, seed, n, reorder=False):
    adversary = FairAdversary(
        seed=seed,
        p_deliver=0.25 if reorder else 0.0,
        max_delay=10 if reorder else 6,
    )
    system = make_system(*factory(), adversary=adversary)
    stats = system.run(["m"] * n, max_steps=400_000)
    assert stats.completed, "library experiment run did not complete"
    assert check_execution(system.execution).valid
    return stats


def run(fast: bool = False, seed: int = 0) -> ExperimentResult:
    """Execute L1: the throughput table and the SR-vs-GBN table."""
    result = ExperimentResult(exp_id=EXP_ID, title=TITLE)
    n = 25 if fast else 40

    throughput = Table(
        ["window", "steps", "steps/message", "packets t->r"]
    )
    steps_by_window = {}
    for window in ([1, 4, 8] if fast else [1, 2, 4, 8, 16]):
        stats = _delivery_stats(
            lambda: make_window_protocol(window), seed, n
        )
        steps_by_window[window] = stats.steps
        throughput.add_row(
            [window, stats.steps, stats.steps / n, stats.packets_t2r]
        )
    result.checks["W=8 at least halves W=1 steps/message"] = (
        steps_by_window[8] * 2 <= steps_by_window[1]
    )

    trade = Table(
        ["protocol", "window", "packets t->r", "receiver state"]
    )
    sr = _delivery_stats(
        lambda: make_window_protocol(8), seed, n, reorder=True
    )
    gbn = _delivery_stats(lambda: make_gobackn(8), seed, n, reorder=True)
    trade.add_row(["selective-repeat", 8, sr.packets_t2r, "O(window)"])
    trade.add_row(["go-back-N", 8, gbn.packets_t2r, "O(1)"])
    result.checks[
        "selective repeat sends fewer forward packets under reordering"
    ] = sr.packets_t2r < gbn.packets_t2r

    result.tables.extend([throughput, trade])
    result.notes.append(
        "both protocols pay in headers (unbounded sequence numbers) -- "
        "the price Theorems 3.1/4.1/5.1 prove unavoidable for anything "
        "this cheap in packets and space."
    )
    return result
