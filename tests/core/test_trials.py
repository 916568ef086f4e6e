"""The batched trial engines are bit-identical to the interpreted path.

The batch engines (:mod:`repro.core.trials`) re-transcribe the
Theorem 5.1 delivery loop and the Theorem 4.1 pumping loop into
integer space; the refactor is only admissible because every observable
is *exactly* preserved.  These tests pin that contract: same
:class:`ProbabilisticRunResult` field for field, same backlog-probe
costs, same deep system state after pumping -- across every library
station pair (working and deliberately broken), error rates and seeds
-- plus the dispatch rules (``engine="auto"``/``"batch"``/
``"interpreted"``) and the support gates.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.channels.probabilistic import TricklePolicy
from repro.core.theorem41 import (
    plant_backlog,
    probe_backlog_cost,
    probe_backlog_costs,
    run_dichotomy,
)
from repro.core.theorem51 import run_probabilistic_delivery
from repro.core import trials
from repro.core.trials import (
    COIN_BLOCK,
    _TrialChannel,
    echo_sends,
    probabilistic_batch_refusal,
    pump_batch_refusal,
)
from repro.datalink.alternating_bit import make_alternating_bit
from repro.datalink.broken import (
    BlackHoleReceiver,
    EagerReceiver,
    ForgetfulSender,
    SwapReceiver,
)
from repro.datalink.flooding import (
    CAPACITY,
    FloodingReceiver,
    FloodingSender,
    ack_packet,
    make_capacity_flooding,
    make_flooding,
)
from repro.datalink.gobackn import make_gobackn
from repro.datalink.sequence import (
    SequenceReceiver,
    SequenceSender,
    make_sequence_protocol,
)
from repro.datalink.sequence_mod import make_modular_sequence
from repro.datalink.stations import ReceiverStation, SenderStation
from repro.datalink.window import make_window_protocol
from repro.ioa.execution import TraceMode
from repro.ioa.sinks import MetricsSink
from repro.runtime.seeds import derive_seed

PAIRS = {
    "flooding": lambda: make_flooding(2),
    "capacity_flooding": lambda: make_capacity_flooding(2, 4),
    "sequence": make_sequence_protocol,
    "alternating_bit": make_alternating_bit,
    "gobackn": lambda: make_gobackn(3),
}

BUDGET = {
    "flooding": 4000,
    "capacity_flooding": 4000,
    "alternating_bit": 4000,
    "gobackn": 4000,
}


def run_both(name, q, seed, n=12):
    common = dict(
        q=q, n=n, seed=seed, packet_budget=BUDGET.get(name)
    )
    interpreted = run_probabilistic_delivery(
        PAIRS[name], engine="interpreted", **common
    )
    batch = run_probabilistic_delivery(PAIRS[name], engine="batch", **common)
    return interpreted, batch


@pytest.mark.parametrize("name", sorted(PAIRS))
@pytest.mark.parametrize("q", [0.1, 0.35])
@pytest.mark.parametrize("seed", [0, 7])
def test_probabilistic_batch_is_bit_identical(name, q, seed):
    interpreted, batch = run_both(name, q, seed)
    assert dataclasses.asdict(batch) == dataclasses.asdict(interpreted)
    assert batch.delivered > 0


def test_auto_engine_matches_both_paths():
    auto = run_probabilistic_delivery(
        PAIRS["flooding"], q=0.2, n=10, seed=3, packet_budget=4000
    )
    interpreted, batch = run_both("flooding", 0.2, 3, n=10)
    assert dataclasses.asdict(auto) == dataclasses.asdict(batch)
    assert dataclasses.asdict(auto) == dataclasses.asdict(interpreted)


def test_metrics_sink_counters_match_interpreted():
    sink_i, sink_b = MetricsSink(count_steps=False), MetricsSink(count_steps=False)
    run_probabilistic_delivery(
        make_sequence_protocol, q=0.25, n=15, seed=5,
        engine="interpreted", sinks=[sink_i],
    )
    run_probabilistic_delivery(
        make_sequence_protocol, q=0.25, n=15, seed=5,
        engine="batch", sinks=[sink_b],
    )
    assert sink_b.snapshot() == sink_i.snapshot()


@pytest.mark.parametrize(
    "seed, q, max_steps",
    [
        pytest.param(seed, q, 30_000 + 10_000 * seed, id=f"{seed}-{q}")
        for seed in range(4)
        for q in (0.3, 0.5)
    ]
    # Its last quiet run needs 83,040 silent copies within 94,134
    # sends, so the batch tier draws one full COIN_BLOCK and crosses
    # its edge.
    + [pytest.param(0, 0.5, 260_000, id="0-0.5-260000")],
)
def test_stalled_k1_flooding_matches_interpreted(seed, q, max_steps):
    """E6(a)'s K=1 regime: the sender never becomes ready again and the
    receiver silently counts copies of a growing stale pool, so the
    batch tier absorbs almost every receipt in bulk.  The result and
    every MetricsSink counter (the t2r peak included) match the
    interpreted tier."""
    common = dict(
        q=q, n=18, seed=seed, packet_budget=300_000, max_steps=max_steps,
    )
    runs = {}
    for engine in ("interpreted", "batch"):
        sink = MetricsSink(count_steps=False)
        result = run_probabilistic_delivery(
            lambda: make_flooding(1), engine=engine, sinks=[sink], **common
        )
        runs[engine] = (dataclasses.asdict(result), sink.snapshot())
    assert runs["batch"] == runs["interpreted"]
    result, _ = runs["batch"]
    assert not result["completed"]
    assert result["steps"] == common["max_steps"]


def per_coin_quiet_sends(channel, vid, k, limit, peak):
    """The quiet loop with one ``random()`` coin per send: the reference
    for :meth:`_TrialChannel.quiet_sends`."""
    rand = channel._rand
    out = channel.size
    lucky = sends = 0
    for sends in range(1, limit + 1):
        out += 1
        if out > peak:
            peak = out
        if rand() >= channel.q:
            out -= 1
            lucky += 1
            if lucky == k:
                break
    channel.sent_total += sends
    channel.size += sends - lucky
    counts = channel.value_counts
    counts[vid] = counts.get(vid, 0) + sends - lucky
    return sends, lucky, peak


def assert_quiet_sends_match(q, seed, k, limit, drawn):
    """Twin channels on twin rngs, ``drawn`` ordinary sends first: the
    block draw and the per-coin loop agree on the result, the pool and
    the rng state."""
    rngs = random.Random(seed), random.Random(seed)
    block, reference = (_TrialChannel(q, rng) for rng in rngs)
    for channel in (block, reference):
        for _ in range(drawn):
            channel.send(9)
    assert block.quiet_sends(1, k, limit, 1) == per_coin_quiet_sends(
        reference, 1, k, limit, 1
    )
    assert (block.size, block.sent_total, block.value_counts) == (
        reference.size, reference.sent_total, reference.value_counts
    )
    assert rngs[0].getstate() == rngs[1].getstate()


#: Edge values of q: every coin lucky, dyadic and non-dyadic thresholds,
#: and the largest q below 1 (almost every coin unlucky).
QUIET_QS = [0.0, 0.1, 0.3, 1 / 3, 0.5, 0.9, math.nextafter(1.0, 0.0)]


@pytest.mark.parametrize("q", QUIET_QS)
@pytest.mark.parametrize("k", [1, 7, 100_000])
@pytest.mark.parametrize("limit", [1, 50, 300_000])
@pytest.mark.parametrize("drawn", [0, 1, 2])
def test_quiet_sends_matches_per_coin_loop(q, k, limit, drawn):
    """Runs past COIN_BLOCK coins cross a block edge, and a
    300,000-send run meets about 1,200 coins whose top byte leaves
    them undecided."""
    assert_quiet_sends_match(q, 0, k, limit, drawn)


@settings(max_examples=40, deadline=None)
@given(
    q=st.one_of(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.integers(0, 2**53 - 1).map(lambda x: x / 2**53),
    ),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 2 * COIN_BLOCK),
    limit=st.integers(0, 3 * COIN_BLOCK),
    drawn=st.integers(0, 2),
)
def test_quiet_sends_matches_per_coin_loop_property(q, seed, k, limit, drawn):
    assert_quiet_sends_match(q, seed, k, limit, drawn)


#: Value ids of the flooded data packet and of its echo in the echo
#: tests (9 is the value the earlier draws send).
DATA_VID, ECHO_VID = 1, 2


def echo_stations(k):
    """A capacity-k flooding sender pending on message ``m`` (so it
    absorbs ``k`` phase-0 acks silently) and a receiver that has
    accepted it (so each phase-0 copy echoes that ack)."""
    sender = FloodingSender(3, CAPACITY, k)
    receiver = FloodingReceiver(3, CAPACITY, 0)
    sender.on_send_msg("m")
    receiver.on_packet(sender.offer_packet())
    receiver.pop_delivery()
    receiver.pop_control_packet()
    assert receiver.echo_packet(sender.offer_packet()) == ack_packet(0)
    assert sender.silent_copies(ack_packet(0)) == k
    return sender, receiver


def per_step_echo_sends(t2r, r2t, sender, receiver, k, limit, peaks):
    """The echo exchange one step at a time through ``_TrialChannel.send``
    and the live stations' own transitions: the reference for
    :func:`echo_sends` plus the kernel's bulk commit and absorb."""
    packet = sender.offer_packet()
    peak_t2r, peak_r2t = peaks
    steps = lucky = absorbed = 0
    while absorbed < k and steps < limit:
        steps += 1
        t2r.send(DATA_VID)
        sender.commit_packet(packet)
        peak_t2r = max(peak_t2r, t2r.size)
        if not t2r.due:
            continue
        t2r.due.clear()
        t2r.deliver(DATA_VID)
        lucky += 1
        receiver.on_packet(packet)
        echo = receiver.pop_control_packet()
        assert not receiver.has_pending_output()
        r2t.send(ECHO_VID)
        peak_r2t = max(peak_r2t, r2t.size)
        if r2t.due:
            r2t.due.clear()
            r2t.deliver(ECHO_VID)
            absorbed += 1
            sender.on_packet(echo)
    return steps, lucky, absorbed, peak_t2r, peak_r2t


def assert_echo_sends_match(q, seed, k, limit, drawn):
    """Twin channel pairs on twin rngs and twin station pairs, ``drawn``
    ordinary sends first on each channel: the bulk echo run and the
    per-step loop agree on the result, both pools, both rngs and both
    stations."""
    sides = []
    for _ in range(2):
        rngs = random.Random(seed), random.Random(seed + 1)
        t2r, r2t = (_TrialChannel(q, rng) for rng in rngs)
        for channel in (t2r, r2t):
            for _ in range(drawn):
                channel.send(9)
            channel.due.clear()
        sides.append((rngs, t2r, r2t, *echo_stations(k)))
    (rngs, t2r, r2t, sender, receiver) = sides[0]
    result = echo_sends(t2r, r2t, DATA_VID, ECHO_VID, k, limit, 1, 1)
    sender.packets_sent += result[0]
    sender.absorb_copies(ack_packet(0), result[2])
    (ref_rngs, ref_t2r, ref_r2t, ref_sender, ref_receiver) = sides[1]
    assert result == per_step_echo_sends(
        ref_t2r, ref_r2t, ref_sender, ref_receiver, k, limit, (1, 1)
    )
    for channel, reference in ((t2r, ref_t2r), (r2t, ref_r2t)):
        assert (channel.size, channel.sent_total, channel.value_counts) == (
            reference.size, reference.sent_total, reference.value_counts
        )
        assert channel.due == reference.due == []
    for rng, reference in zip(rngs, ref_rngs):
        assert rng.getstate() == reference.getstate()
    assert sender.protocol_state() == ref_sender.protocol_state()
    assert sender.packets_sent == ref_sender.packets_sent
    assert receiver.protocol_state() == ref_receiver.protocol_state()


@pytest.mark.parametrize("q", QUIET_QS)
@pytest.mark.parametrize("k", [1, 7, 300])
@pytest.mark.parametrize("limit", [1, 50, 5_000])
@pytest.mark.parametrize("drawn", [0, 2])
def test_echo_sends_matches_per_step_loop(q, k, limit, drawn):
    assert_echo_sends_match(q, 0, k, limit, drawn)


@pytest.mark.parametrize(
    "q, limit",
    [(0.0, 3 * COIN_BLOCK), (0.1, 3 * COIN_BLOCK), (0.1, COIN_BLOCK + 100)],
    ids=["q0-whole-run", "q0.1-whole-run", "q0.1-budget-ends-mid-run"],
)
def test_echo_sends_crosses_a_coin_block(q, limit):
    """k is past COIN_BLOCK, so the first t2r block draws a full
    COIN_BLOCK of coins and crosses its edge; at q = 0.1 the budget of
    the last case ends before the k-th echo is absorbed."""
    assert_echo_sends_match(q, 3, COIN_BLOCK + 3, limit, 1)


@settings(max_examples=40, deadline=None)
@given(
    q=st.one_of(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.integers(0, 2**53 - 1).map(lambda x: x / 2**53),
    ),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 3_000),
    limit=st.integers(0, 6_000),
    drawn=st.integers(0, 2),
)
def test_echo_sends_matches_per_step_loop_property(q, seed, k, limit, drawn):
    assert_echo_sends_match(q, seed, k, limit, drawn)


def test_engine_rejects_unknown_name():
    with pytest.raises(ValueError, match="engine"):
        run_probabilistic_delivery(
            make_sequence_protocol, q=0.2, n=2, engine="turbo"
        )


def test_batch_engine_rejects_unsupported_configuration():
    refusal = probabilistic_batch_refusal(
        TricklePolicy.NEVER, TraceMode.FULL, None
    )
    assert refusal is not None and "COUNTS" in refusal
    assert probabilistic_batch_refusal(
        TricklePolicy.NEVER, TraceMode.COUNTS, [MetricsSink(count_steps=False)]
    ) is None
    assert pump_batch_refusal(TraceMode.FULL) is not None
    assert pump_batch_refusal(TraceMode.COUNTS) is None
    with pytest.raises(ValueError, match="batch"):
        run_probabilistic_delivery(
            make_sequence_protocol, q=0.2, n=2,
            trace_mode=TraceMode.FULL, engine="batch",
        )
    # auto silently falls back on the same configuration
    result = run_probabilistic_delivery(
        make_sequence_protocol, q=0.2, n=4, seed=1,
        trace_mode=TraceMode.FULL, engine="auto",
    )
    assert result.delivered == 4


def test_capacity_flooding_runs_the_quiet_loop(monkeypatch):
    """A capacity-mode flooding receiver counts copies up to its
    capacity without output, so the batch tier absorbs those runs in
    bulk: the result matches the interpreted tier field for field
    while fewer receipts reach ``on_packet``."""
    calls = {}

    def counting(method):
        def wrapper(self, *args):
            calls[method.__name__] += 1
            return method(self, *args)
        return wrapper

    for name in ("on_packet", "absorb_copies"):
        method = getattr(FloodingReceiver, name)
        monkeypatch.setattr(FloodingReceiver, name, counting(method))
    runs = {}
    for engine in ("interpreted", "batch"):
        calls.update(on_packet=0, absorb_copies=0)
        result = run_probabilistic_delivery(
            lambda: make_capacity_flooding(3, 8),
            q=0.5, n=6, seed=0, engine=engine,
        )
        runs[engine] = (dataclasses.asdict(result), dict(calls))
    (interpreted, i_calls), (batch, b_calls) = (
        runs["interpreted"], runs["batch"]
    )
    assert batch == interpreted
    assert batch["completed"]
    assert i_calls["absorb_copies"] == 0 < b_calls["absorb_copies"]
    assert b_calls["on_packet"] < i_calls["on_packet"]


# ---------------------------------------------------------------------------
# the station-pair matrix
# ---------------------------------------------------------------------------

#: Every library station class, paired as the protocols use them (the
#: broken receivers/senders ride the sequence protocol).
MATRIX = {
    "flooding_oracle": lambda: make_flooding(2),
    "flooding_capacity": lambda: make_capacity_flooding(2, 3),
    "sequence": make_sequence_protocol,
    "alternating_bit": make_alternating_bit,
    "gobackn": lambda: make_gobackn(3),
    "modular_sequence": make_modular_sequence,
    "window": make_window_protocol,
    "black_hole": lambda: (SequenceSender(), BlackHoleReceiver()),
    "eager": lambda: (SequenceSender(), EagerReceiver()),
    "forgetful": lambda: (ForgetfulSender(), SequenceReceiver()),
    "swap": lambda: (SequenceSender(), SwapReceiver()),
}

MATRIX_CASES = sorted(MATRIX.items())


def all_subclasses(base):
    found, frontier = set(), [base]
    while frontier:
        cls = frontier.pop()
        for sub in cls.__subclasses__():
            if sub not in found:
                found.add(sub)
                frontier.append(sub)
    return {cls for cls in found if cls.__module__.startswith("repro.")}


def test_every_station_class_is_in_the_matrix():
    """A new library station class must join the batch equivalence
    matrix (the same guard as ``tests/ioa/test_compile_equivalence.py``)."""
    covered = set()
    for factory in MATRIX.values():
        sender, receiver = factory()
        covered.add(type(sender))
        covered.add(type(receiver))
    library = all_subclasses(SenderStation) | all_subclasses(ReceiverStation)
    assert library <= covered


@pytest.mark.parametrize(
    "name, factory", MATRIX_CASES, ids=[n for n, _ in MATRIX_CASES]
)
@given(
    root=st.integers(min_value=0, max_value=2**32 - 1),
    q=st.sampled_from([0.0, 0.2, 0.5, 0.8]),
    n=st.integers(min_value=1, max_value=6),
)
@example(root=0, q=0.5, n=6)
@example(root=1, q=0.5, n=4)
@settings(max_examples=6, deadline=None)
def test_batch_matches_interpreted_on_every_pair(name, factory, root, q, n):
    """batch == interpreted, field for field, on every station pair --
    including the broken ones, whose runs stall identically.  The
    fields include ``dl1_violated_at``, which the interpreted tier reads
    from a ``SpecSink`` and the batch tier from ``rm`` and ``sm``; the
    q = 0.5 examples run the flooding pairs' echo runs."""
    for i in range(3):
        common = dict(
            q=q, n=n, seed=derive_seed(root, "batch-equiv", f"t{i}"),
            max_steps=600,
        )
        batch = run_probabilistic_delivery(factory, engine="batch", **common)
        reference = run_probabilistic_delivery(
            factory, engine="interpreted", **common
        )
        assert batch == reference
        assert batch.dl1_violated_at == reference.dl1_violated_at


@pytest.mark.parametrize(
    "factory, violated_at",
    [
        (lambda: (SequenceSender(), EagerReceiver()), [7, 21, 7, 8]),
        (lambda: make_flooding(1), [7, 33, 7, 10]),
        (lambda: make_flooding(2), [None] * 4),
    ],
    ids=["eager", "flooding_k1", "flooding_k2"],
)
def test_dl1_verdict_matches_spec_sink(factory, violated_at):
    """The first (DL1) violation is the event a ``SpecSink`` names on
    the interpreted tier, on a receiver that delivers duplicates, on
    the K=1 flooding pair (stale copies forge deliveries) and not on a
    safe pair."""
    for seed, expected in enumerate(violated_at):
        common = dict(q=0.3, n=12, seed=seed, max_steps=3_000)
        batch = run_probabilistic_delivery(factory, engine="batch", **common)
        reference = run_probabilistic_delivery(
            factory, engine="interpreted", **common
        )
        assert batch == reference
        assert batch.dl1_violated_at == expected


class _PlainFloodingSender(FloodingSender):
    """A flooding sender that keeps the base silent-receipt hooks."""

    silent_copies = SenderStation.silent_copies
    absorb_copies = SenderStation.absorb_copies


#: Pairs that keep a base hook the echo run needs: every library pair
#: but flooding, and a flooding pair whose sender has no lookahead.
BASE_HOOK_CASES = [
    case for case in MATRIX_CASES if not case[0].startswith("flooding")
] + [("flooding_plain_sender", lambda: (_PlainFloodingSender(2),
                                         FloodingReceiver(2)))]


def count_echo_runs(monkeypatch):
    calls = []
    run = trials.echo_sends

    def counting(*args):
        calls.append(args[4])
        return run(*args)

    monkeypatch.setattr(trials, "echo_sends", counting)
    return calls


@pytest.mark.parametrize(
    "name, factory", BASE_HOOK_CASES, ids=[n for n, _ in BASE_HOOK_CASES]
)
def test_base_hook_pairs_never_enter_the_echo_run(name, factory, monkeypatch):
    """The echo run needs all three hooks: the receiver's
    ``echo_packet``, the sender's ``silent_copies`` and an idle commit.
    Without them the kernel steps, and matches the interpreted tier."""
    calls = count_echo_runs(monkeypatch)
    for seed in range(3):
        common = dict(q=0.5, n=6, seed=seed, max_steps=3_000)
        batch = run_probabilistic_delivery(factory, engine="batch", **common)
        reference = run_probabilistic_delivery(
            factory, engine="interpreted", **common
        )
        assert batch == reference
    assert calls == []


def test_flooding_pair_enters_the_echo_run(monkeypatch):
    """The positive control: the same flooding pair with its sender's
    lookahead runs echo runs, and its results do not depend on them."""
    calls = count_echo_runs(monkeypatch)
    for seed in range(3):
        common = dict(q=0.5, n=6, seed=seed, max_steps=3_000, engine="batch")
        entered = len(calls)
        plain = run_probabilistic_delivery(
            lambda: (_PlainFloodingSender(2), FloodingReceiver(2)), **common
        )
        assert len(calls) == entered
        hooked = run_probabilistic_delivery(lambda: make_flooding(2), **common)
        assert hooked == plain
    assert calls and max(calls) > 1


@pytest.mark.parametrize(
    "name, factory", MATRIX_CASES, ids=[n for n, _ in MATRIX_CASES]
)
def test_kernel_delivers_only_counted_copies(name, factory, monkeypatch):
    """(PL1) holds by construction: every delivery takes a copy of a
    value whose in-transit count is positive, and each pool's counts
    stay non-negative and sum to its size."""
    channels = []
    init = _TrialChannel.__init__
    deliver = _TrialChannel.deliver

    def recording_init(self, *args):
        init(self, *args)
        channels.append(self)

    def checked_deliver(self, vid):
        assert self.value_counts.get(vid, 0) > 0
        deliver(self, vid)

    monkeypatch.setattr(_TrialChannel, "__init__", recording_init)
    monkeypatch.setattr(_TrialChannel, "deliver", checked_deliver)
    for seed in range(3):
        for q in (0.2, 0.5):
            channels.clear()
            run_probabilistic_delivery(
                factory, q=q, n=6, seed=seed, max_steps=3_000,
                engine="batch",
            )
            assert len(channels) == 2
            for channel in channels:
                assert min(channel.value_counts.values(), default=0) >= 0
                assert channel.size == sum(channel.value_counts.values())


def test_batch_honours_packet_budgets_and_messages():
    for seed in range(8):
        common = dict(
            q=0.3, n=20, seed=seed, packet_budget=40, message=f"t{seed}"
        )
        batch = run_probabilistic_delivery(
            make_sequence_protocol, engine="batch", **common
        )
        reference = run_probabilistic_delivery(
            make_sequence_protocol, engine="interpreted", **common
        )
        assert batch == reference
        assert not batch.completed  # the budget bites


# ---------------------------------------------------------------------------
# Theorem 4.1 pumping
# ---------------------------------------------------------------------------

PUMP_PAIRS = {
    "flooding": lambda: make_flooding(2),
    "sequence": make_sequence_protocol,
}


@pytest.mark.parametrize("name", sorted(PUMP_PAIRS))
@pytest.mark.parametrize("backlog", [0, 8, 64])
def test_probe_backlog_cost_matches_interpreted(name, backlog):
    interpreted = probe_backlog_cost(
        PUMP_PAIRS[name], backlog, engine="interpreted"
    )
    batch = probe_backlog_cost(PUMP_PAIRS[name], backlog, engine="batch")
    assert dataclasses.asdict(batch) == dataclasses.asdict(interpreted)


def channel_bag(channel):
    return sorted(
        (copy.copy_id, copy.packet, copy.sent_at)
        for copy in channel.in_transit()
    )


@pytest.mark.parametrize("name", sorted(PUMP_PAIRS))
def test_plant_backlog_state_matches_interpreted(name):
    planted = {}
    for engine in ("interpreted", "batch"):
        system, pool, cost = plant_backlog(
            PUMP_PAIRS[name], 48,
            trace_mode=TraceMode.COUNTS, engine=engine,
        )
        planted[engine] = (system, pool, cost)
    (sys_i, pool_i, cost_i) = planted["interpreted"]
    (sys_b, pool_b, cost_b) = planted["batch"]
    assert cost_b == cost_i
    assert pool_b.reserved_ids == pool_i.reserved_ids
    assert pool_b.total() == pool_i.total()
    assert sys_b.sender.protocol_state() == sys_i.sender.protocol_state()
    assert sys_b.receiver.protocol_state() == sys_i.receiver.protocol_state()
    assert sys_b.sender.packets_sent == sys_i.sender.packets_sent
    assert (
        sys_b.receiver.messages_delivered == sys_i.receiver.messages_delivered
    )
    for direction, chan_b in sys_b.channels.items():
        chan_i = sys_i.channels[direction]
        assert channel_bag(chan_b) == channel_bag(chan_i)
        assert chan_b.sent_total == chan_i.sent_total
        assert chan_b.delivered_total == chan_i.delivered_total


def fingerprint(triple):
    """Every observable field of a planted configuration, including
    the exact channel bags (copy ids, packets, send indices, insertion
    order) and the live copy-id counter."""
    system, pool, spent = triple
    ex = system.execution
    c = ex._counts
    chans = []
    for chan in (system.chan_t2r, system.chan_r2t):
        chans.append((
            {
                cid: (tc.packet, tc.sent_at)
                for cid, tc in chan._in_transit.items()
            },
            list(chan._in_transit),
            chan._sent_total,
            chan._delivered_total,
            repr(chan._copy_ids),
        ))
    return (
        system.sender.protocol_state(),
        system.sender.packets_sent,
        system.receiver.protocol_state(),
        system.receiver.messages_delivered,
        chans,
        ex.length,
        (c.sm, c.rm, c.sp_t2r, c.sp_r2t, c.rp_t2r, c.rp_r2t,
         c.distinct_t2r, c.distinct_r2t,
         c._last_sent_t2r, c._last_sent_r2t),
        (sorted(pool.reserved_ids), dict(pool.counts)),
        spent,
    )


def plant_outcomes(factory, **kwargs):
    """The planted fingerprint (or the error) per pumping tier."""
    outcomes = {}
    for engine in ("batch", "interpreted"):
        try:
            outcomes[engine] = fingerprint(
                plant_backlog(
                    factory,
                    trace_mode=TraceMode.COUNTS,
                    engine=engine,
                    **kwargs,
                )
            )
        except RuntimeError as exc:
            outcomes[engine] = str(exc)
    return outcomes


#: Pairs whose pumping succeeds; the broken ones fail it identically.
PUMP_WORKING = sorted(
    (
        "alternating_bit", "flooding_capacity", "flooding_oracle",
        "gobackn", "modular_sequence", "sequence", "window",
    )
)
PUMP_BROKEN = sorted(("black_hole", "eager", "forgetful", "swap"))


def test_every_station_class_is_pumped():
    """Every matrix pair is pumped, as working or broken, so a new
    library station class cannot skip the pumping equivalence cases."""
    assert set(PUMP_WORKING) | set(PUMP_BROKEN) == set(MATRIX)
    assert not set(PUMP_WORKING) & set(PUMP_BROKEN)
    covered = set()
    for name in PUMP_WORKING + PUMP_BROKEN:
        sender, receiver = MATRIX[name]()
        covered.add(type(sender))
        covered.add(type(receiver))
    library = all_subclasses(SenderStation) | all_subclasses(ReceiverStation)
    assert library <= covered


@pytest.mark.parametrize("name", PUMP_WORKING)
@given(
    backlog=st.integers(min_value=0, max_value=48),
    discovery=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=5, deadline=None)
def test_pumping_batch_matches_interpreted(name, backlog, discovery):
    """Station states, both channel bags, every counter, the reserve
    pool and the messages spent agree field for field."""
    outcomes = plant_outcomes(
        MATRIX[name], backlog=backlog, discovery_messages=discovery
    )
    assert outcomes["batch"] == outcomes["interpreted"]
    assert not isinstance(outcomes["batch"], str)


@pytest.mark.parametrize("name", PUMP_BROKEN)
def test_broken_pairs_pump_identically(name):
    """Where the pumping starves, the batch tier fails with the
    interpreted tier's exact error; where it limps through (the eager
    receiver delivers regardless), the configurations match."""
    outcomes = plant_outcomes(MATRIX[name], backlog=8)
    assert outcomes["batch"] == outcomes["interpreted"]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(backlog=0),
        dict(backlog=5, discovery_messages=0),
        dict(backlog=9, max_messages=0),
        dict(backlog=9, max_messages=3),
        dict(backlog=3, max_steps_per_message=0),
        dict(backlog=6, message=("tuple", 1)),
    ],
    ids=["zero-backlog", "no-discovery", "no-budget", "tiny-budget",
         "zero-steps", "tuple-message"],
)
def test_pumping_edge_cases_match(kwargs):
    """Budget exhaustion, zero-step messages and odd message values
    take the same path (success or identical error) on both tiers."""
    outcomes = plant_outcomes(make_sequence_protocol, **kwargs)
    assert outcomes["batch"] == outcomes["interpreted"]


def test_probe_and_dichotomy_match_interpreted():
    for factory in (make_alternating_bit, make_sequence_protocol):
        batch = probe_backlog_cost(factory, 12, engine="batch")
        reference = probe_backlog_cost(factory, 12, engine="interpreted")
        assert batch == reference
    batch = run_dichotomy(make_alternating_bit, 12, engine="batch")
    reference = run_dichotomy(make_alternating_bit, 12, engine="interpreted")
    # The replay outcome embeds a live Execution (identity equality);
    # compare the decision surface instead.
    for field in ("probe", "exceeded_bound", "forged", "theorem_confirmed"):
        assert getattr(batch, field) == getattr(reference, field), field
    assert (batch.replay is None) == (reference.replay is None)
    if batch.replay is not None:
        assert batch.replay.success == reference.replay.success
        assert batch.replay.reason == reference.replay.reason
        assert (batch.replay.forged_deliveries
                == reference.replay.forged_deliveries)


def test_probe_grid_matches_per_level_probes():
    levels = [0, 4, 9, 33]
    grid = probe_backlog_costs(make_alternating_bit, levels)
    solo = [
        probe_backlog_cost(make_alternating_bit, level, engine="interpreted")
        for level in levels
    ]
    assert grid == solo
