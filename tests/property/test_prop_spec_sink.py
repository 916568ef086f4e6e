"""Property-based tests: the one-pass spec checker against its oracle.

:class:`~repro.datalink.spec.SpecSink` decides (PL1), (DL1) and
(DL1)+(DL2) one event at a time, and the ``check_*`` functions replay
recorded executions through it.  ``tests/datalink/spec_reference.py``
keeps the four original trace-walking checkers as an independent
oracle.  Two families of executions are compared:

* generated ones mixing message and packet events, with copy-id reuse,
  double receipt, corruption, forgery and copies in transit before the
  recording started;
* real runs of every protocol pair and broken fixture, over a
  probabilistic channel and over an adversarial non-FIFO channel.  A
  live sink watches a COUNTS run; the reference reads the FULL run with
  the same seed.
"""

from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels.adversary import FairAdversary
from repro.datalink.broken import (
    BlackHoleReceiver,
    EagerReceiver,
    ForgetfulSender,
    SwapReceiver,
)
from repro.datalink.flooding import make_flooding
from repro.datalink.sequence import SequenceReceiver, SequenceSender
from repro.datalink.spec import (
    SpecSink,
    SpecViolated,
    check_dl1,
    check_dl1_dl2,
    check_execution,
    check_liveness,
    check_pl1,
)
from repro.datalink.system import make_system
from repro.ioa.actions import (
    Direction,
    receive_msg,
    receive_pkt,
    send_msg,
    send_pkt,
)
from repro.ioa.execution import Execution, TraceMode
from tests.datalink import spec_reference as reference
from tests.property.test_prop_protocols import FACTORIES

MESSAGES = st.sampled_from(["a", "b", "c"])
PACKETS = st.sampled_from(["p", "q"])
DIRECTIONS = st.sampled_from([Direction.T2R, Direction.R2T])
KINDS = st.sampled_from(["send_msg", "receive_msg", "send_pkt", "receive_pkt"])


@st.composite
def mixed_executions(draw):
    """``(actions, initial t->r ids, initial r->t ids)``: actions that
    are honest except where a drawn fault plants a violation.

    Copy ids 0-3 may be in transit before the recording starts; sends
    mint ids from 4 up.
    """
    initial = {
        direction: draw(st.frozensets(st.integers(0, 3), max_size=3))
        for direction in (Direction.T2R, Direction.R2T)
    }
    next_id = {Direction.T2R: 4, Direction.R2T: 4}
    # copy id -> value, for copies that may still be received honestly
    live = {
        direction: dict.fromkeys(ids, "p") for direction, ids in initial.items()
    }
    received = {Direction.T2R: [], Direction.R2T: []}
    pending = []  # messages sent and not yet delivered, in order
    actions = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(KINDS)
        fault = draw(st.integers(0, 7)) == 0
        # An honest receipt needs something to receive.
        if not fault and kind == "receive_msg" and not pending:
            kind = "send_msg"
        if not fault and kind == "receive_pkt" and not any(live.values()):
            kind = "send_pkt"
        if kind == "send_msg":
            message = draw(MESSAGES)
            pending.append(message)
            actions.append(send_msg(message))
        elif kind == "receive_msg":
            if not fault:
                actions.append(receive_msg(pending.pop(0)))
            elif pending and draw(st.booleans()):  # out of order
                position = draw(st.integers(0, len(pending) - 1))
                actions.append(receive_msg(pending.pop(position)))
            else:  # forged or duplicated
                actions.append(receive_msg(draw(MESSAGES)))
        elif kind == "send_pkt":
            direction = draw(DIRECTIONS)
            packet = draw(PACKETS)
            if not fault:
                copy_id = next_id[direction]
                next_id[direction] += 1
                live[direction][copy_id] = packet
            else:  # reused or missing id
                copy_id = draw(st.one_of(
                    st.integers(0, next_id[direction] - 1), st.none()
                ))
            actions.append(send_pkt(direction, packet, copy_id))
        else:
            direction = draw(DIRECTIONS)
            if not fault and not live[direction]:
                direction = direction.opposite
            copies = live[direction]
            if not fault:
                copy_id = draw(st.sampled_from(sorted(copies)))
                packet = copies.pop(copy_id)
                received[direction].append(copy_id)
            else:  # double receipt, forgery, corruption or missing id
                choices = [
                    st.integers(0, next_id[direction] + 2), st.none()
                ]
                if received[direction]:
                    choices.append(st.sampled_from(received[direction]))
                if copies:
                    choices.append(st.sampled_from(sorted(copies)))
                copy_id = draw(st.one_of(*choices))
                packet = draw(PACKETS)
            actions.append(receive_pkt(direction, packet, copy_id))
    return actions, initial[Direction.T2R], initial[Direction.R2T]


@given(mixed_executions())
@settings(max_examples=300, deadline=None)
def test_generated_executions_match_reference(generated):
    actions, t2r, r2t = generated
    execution = Execution()
    execution.extend(actions)
    expected = reference.reference_violations(execution, t2r, r2t)
    report = check_execution(execution, t2r, r2t)
    assert report.violations == expected
    assert check_pl1(execution, Direction.T2R, t2r) == (
        reference.check_pl1(execution, Direction.T2R, t2r)
    )
    assert check_pl1(execution, Direction.R2T, r2t) == (
        reference.check_pl1(execution, Direction.R2T, r2t)
    )
    assert check_dl1(execution) == reference.check_dl1(execution)
    assert check_dl1_dl2(execution) == reference.check_dl1_dl2(execution)
    if reference.check_dl1(execution) is None:
        assert check_liveness(execution) == (
            reference.check_liveness(execution)
        )
    assert report.pending_messages == check_liveness(execution) >= 0

    # A sink attached to a counters-only execution sees the same events.
    sink = SpecSink(t2r, r2t)
    live = Execution(trace_mode=TraceMode.COUNTS, sinks=[sink])
    live.extend(actions)
    assert sink.report() == report

    # With stop=True it raises at the earliest violation, after taking
    # in the whole violating event.
    stopping = SpecSink(t2r, r2t, stop=True)
    cut = Execution(trace_mode=TraceMode.COUNTS, sinks=[stopping])
    with pytest.raises(SpecViolated) if expected else nullcontext() as caught:
        cut.extend(actions)
    if expected:
        first = min(v.event_index for v in expected)
        assert caught.value.violation.event_index == first
        assert len(cut) == first + 1
        assert stopping.report().violations == [
            v for v in expected if v.event_index == first
        ]
    else:
        assert stopping.report().ok


# ----------------------------------------------------------------------
# real runs
# ----------------------------------------------------------------------
PAIRS = {
    **FACTORIES,
    "black-hole": lambda: (SequenceSender(), BlackHoleReceiver()),
    "eager": lambda: (SequenceSender(), EagerReceiver()),
    "forgetful": lambda: (ForgetfulSender(), SequenceReceiver()),
    "swap": lambda: (SequenceSender(), SwapReceiver()),
    "flooding-K1": lambda: make_flooding(1),
}


def build(name, channel, seed, trace_mode, sinks=None):
    if channel == "probabilistic":
        return make_system(
            *PAIRS[name](), q=0.3, seed=seed,
            trace_mode=trace_mode, sinks=sinks,
        )
    return make_system(
        *PAIRS[name](),
        adversary=FairAdversary(seed=seed, p_deliver=0.3, max_delay=6),
        sender_burst=2,
        trace_mode=trace_mode,
        sinks=sinks,
    )


@pytest.mark.parametrize("name", sorted(PAIRS))
@given(
    channel=st.sampled_from(["probabilistic", "fair-nonfifo"]),
    seed=st.integers(0, 10_000),
    messages=st.lists(st.sampled_from(["m", "x"]), min_size=1, max_size=5),
)
@settings(max_examples=8, deadline=None)
def test_live_sink_matches_reference_on_real_runs(
    name, channel, seed, messages
):
    steps = 600
    full = build(name, channel, seed, TraceMode.FULL)
    full.run(messages, max_steps=steps)
    expected = reference.reference_violations(full.execution)

    sink = SpecSink()
    counted = build(name, channel, seed, TraceMode.COUNTS, [sink])
    counted.run(messages, max_steps=steps)
    assert len(counted.execution) == len(full.execution)
    assert sink.report() == check_execution(full.execution)
    assert sink.report().violations == expected
    if reference.check_dl1(full.execution) is None:
        assert sink.pending_messages == (
            reference.check_liveness(full.execution)
        )

    stopping = SpecSink(stop=True)
    cut = build(name, channel, seed, TraceMode.COUNTS, [stopping])
    if not expected:
        cut.run(messages, max_steps=steps)
        assert stopping.report().ok
        return
    with pytest.raises(SpecViolated) as caught:
        cut.run(messages, max_steps=steps)
    first = min(v.event_index for v in expected)
    assert caught.value.violation.event_index == first
    assert caught.value.violation in expected
    assert len(cut.execution) == first + 1
    assert not stopping.report().ok
