"""Determinism and completeness pins for the checker.

The contract: a check's verdict *and* its counterexample trace are
bit-identical whether parents are tracked inline or by the re-run.  The
completeness matrix then guarantees every stock property has at least
one violating and one satisfying station pair in the repo -- a checker
that has never caught a violation of a property is untested on it.
"""

import pytest

from repro.checker import STOCK_PROPERTIES, check_protocol
from repro.datalink.alternating_bit import make_alternating_bit
from repro.datalink.broken import EagerReceiver
from repro.datalink.sequence import SequenceSender, make_sequence_protocol

from tests.checker.stations import make_leaky_pair


def eager_pair():
    return SequenceSender(), EagerReceiver()


def observables(result):
    """Everything a verdict consumer can see, content-hashed."""
    cex = result.counterexample
    return {
        "verdict": result.verdict,
        "configurations": result.stats["configurations"],
        "levels": result.stats["levels"],
        "fingerprint": None if cex is None else cex.fingerprint(),
        "target_digest": None if cex is None else cex.target_digest,
        "trace": None if cex is None else [
            step.label for step in cex.steps
        ],
        "concrete": None if cex is None else cex.concrete,
    }


# (name, factory, property spec, max_messages, expected verdict)
CASES = [
    ("forgery-violated", eager_pair, "dl1-forgery", 2, "violated"),
    ("forgery-holds", make_sequence_protocol, "dl1-forgery", 2, "holds"),
    ("header-violated", make_sequence_protocol, "header-bound=2", 3,
     "violated"),
]


@pytest.mark.parametrize("name,factory,spec,mm,expected",
                         CASES, ids=[c[0] for c in CASES])
def test_verdict_and_trace_identical_across_engines(
    name, factory, spec, mm, expected
):
    def run(**kwargs):
        sender, receiver = factory()
        return check_protocol(sender, receiver, ["m"], spec,
                              max_messages=mm, **kwargs)

    reference = run()
    assert reference.verdict == expected
    assert observables(run(trace="inline")) == observables(reference)


# ---------------------------------------------------------------------------
# Completeness: every stock property has a violator and a satisfier.
# ---------------------------------------------------------------------------

# property name -> (spec, [(factory, max_messages, expected verdict)]).
COMPLETENESS = {
    "type-ok": ("type-ok", [
        (make_leaky_pair, 1, "violated"),
        (make_sequence_protocol, 2, "holds"),
    ]),
    "header-bound": ("header-bound=2", [
        (make_sequence_protocol, 3, "violated"),
        (make_alternating_bit, 3, "holds"),
    ]),
    "dl1-forgery": ("dl1-forgery", [
        (eager_pair, 2, "violated"),
        (make_sequence_protocol, 2, "holds"),
    ]),
}


def test_completeness_matrix_covers_every_stock_property():
    """Guard: adding a stock property forces a matrix entry here."""
    assert set(COMPLETENESS) == set(STOCK_PROPERTIES)
    for spec, cases in COMPLETENESS.values():
        verdicts = {expected for _, _, expected in cases}
        assert {"violated", "holds"} <= verdicts, spec


@pytest.mark.parametrize(
    "spec,factory,mm,expected",
    [
        (spec, factory, mm, expected)
        for spec, cases in COMPLETENESS.values()
        for factory, mm, expected in cases
    ],
    ids=[
        f"{spec}-{expected}-{factory.__name__}"
        for spec, cases in COMPLETENESS.values()
        for factory, mm, expected in cases
    ],
)
def test_completeness_matrix(spec, factory, mm, expected):
    sender, receiver = factory()
    result = check_protocol(sender, receiver, ["m"], spec, max_messages=mm)
    assert result.verdict == expected
    if expected == "violated":
        cex = result.counterexample
        assert cex is not None
        assert cex.steps[0].label is None
        assert all(step.label is not None for step in cex.steps[1:])
