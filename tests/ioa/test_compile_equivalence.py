"""Kernel-vs-station equivalence for every datalink station class.

The batched engines (:mod:`repro.core.trials`) drive the stations
through the integer kernels of :mod:`repro.ioa.compile`
(``InterpretedSender`` / ``InterpretedReceiver``), whose closures
call the protocol hooks and drain the output queues directly.  The
engines are only sound if a kernel is observationally identical to
the station it wraps, so this suite runs randomized closed-loop
schedules (message submissions, transmissions, non-FIFO deliveries in
both directions, delivery/control pops) twice: once through the
stations' own methods over plain multiset channels, once through the
kernels over value-id pools, and asserts the two trajectories match
step for step -- protocol states, Definition-2 counters, readiness,
offered packets and every popped output.

Parametrized over every concrete station class in
:mod:`repro.datalink` (oracle-mode flooding runs against a
:class:`~repro.ioa.compile.PoolOracle` on the kernel side and an
equivalent bag oracle on the station side), with a completeness guard
in the style of ``tests/channels/test_clone_fidelity.py`` so a new
station class cannot ship without joining the matrix.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalink.alternating_bit import (
    AlternatingBitReceiver,
    AlternatingBitSender,
    make_alternating_bit,
)
from repro.datalink.broken import (
    BlackHoleReceiver,
    EagerReceiver,
    ForgetfulSender,
    SwapReceiver,
)
from repro.datalink.flooding import (
    FloodingReceiver,
    FloodingSender,
    make_capacity_flooding,
    make_flooding,
)
from repro.datalink.gobackn import GoBackNReceiver, GoBackNSender, make_gobackn
from repro.datalink.sequence import (
    SequenceReceiver,
    SequenceSender,
    make_sequence_protocol,
)
from repro.datalink.sequence_mod import (
    ModularSequenceReceiver,
    ModularSequenceSender,
    make_modular_sequence,
)
from repro.datalink.stations import ReceiverStation, SenderStation
from repro.datalink.window import WindowReceiver, WindowSender, make_window_protocol
from repro.ioa.actions import Direction
from repro.ioa.compile import (
    NO_VALUE,
    InterpretedReceiver,
    InterpretedSender,
    PoolOracle,
    ValueIntern,
)

# ---------------------------------------------------------------------------
# the coverage matrix
# ---------------------------------------------------------------------------

PAIR_FACTORIES = {
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

CASES = sorted(PAIR_FACTORIES.items())
CASE_IDS = [name for name, _ in CASES]

EXPECTED_SENDERS = {
    AlternatingBitSender,
    FloodingSender,
    ForgetfulSender,
    GoBackNSender,
    ModularSequenceSender,
    SequenceSender,
    WindowSender,
}
EXPECTED_RECEIVERS = {
    AlternatingBitReceiver,
    BlackHoleReceiver,
    EagerReceiver,
    FloodingReceiver,
    GoBackNReceiver,
    ModularSequenceReceiver,
    SequenceReceiver,
    SwapReceiver,
    WindowReceiver,
}


def all_subclasses(base):
    found, frontier = set(), [base]
    while frontier:
        cls = frontier.pop()
        for sub in cls.__subclasses__():
            if sub not in found:
                found.add(sub)
                frontier.append(sub)
    # Only library stations belong in the matrix; test-local fixtures
    # (e.g. the checker suite's deliberately ill-typed stations) are
    # exempt from the kernel-equivalence obligation.
    return {cls for cls in found if cls.__module__.startswith("repro.")}


def test_every_station_class_is_covered():
    """A new library station class must join the equivalence matrix."""
    assert all_subclasses(SenderStation) == EXPECTED_SENDERS
    assert all_subclasses(ReceiverStation) == EXPECTED_RECEIVERS
    covered_senders = set()
    covered_receivers = set()
    for _, factory in CASES:
        sender, receiver = factory()
        covered_senders.add(type(sender))
        covered_receivers.add(type(receiver))
    assert covered_senders == EXPECTED_SENDERS
    assert covered_receivers == EXPECTED_RECEIVERS


# ---------------------------------------------------------------------------
# the two backends
# ---------------------------------------------------------------------------


class _BagOracle:
    """Channel-oracle answers over plain packet bags (the station
    backend's channels); must agree with :class:`PoolOracle`."""

    def __init__(self, bags):
        self._bags = bags

    def transit_count(self, direction, packet):
        return self._bags[direction].count(packet)

    def count_matching(self, direction, predicate):
        return sum(1 for packet in self._bags[direction] if predicate(packet))

    def transit_size(self, direction):
        return len(self._bags[direction])


class _Pool:
    """Value-id multiset with the interface :class:`PoolOracle` reads."""

    def __init__(self):
        self.value_counts = {}
        self.size = 0

    def add(self, vid):
        self.value_counts[vid] = self.value_counts.get(vid, 0) + 1
        self.size += 1

    def remove(self, vid):
        self.value_counts[vid] -= 1
        self.size -= 1


OPS = ("msg", "xmit", "del_t2r", "del_r2t", "pop_delivery", "pop_control")


def drive_stations(factory, seed, steps):
    """The reference trajectory: real stations over multiset bags."""
    sender, receiver = factory()
    bags = {Direction.T2R: [], Direction.R2T: []}
    oracle = _BagOracle(bags)
    for station in (sender, receiver):
        if station.uses_oracle:
            station.oracle = oracle
    rng = random.Random(seed)
    t2r, r2t = bags[Direction.T2R], bags[Direction.R2T]
    trajectory = []
    messages = 0
    for _ in range(steps):
        op = rng.choice(OPS)
        out = None
        if op == "msg":
            if sender.ready_for_message():
                sender.accept_message(f"m{messages}")
                messages += 1
                out = "accepted"
        elif op == "xmit":
            packet = sender.offer_packet()
            out = packet
            if packet is not None:
                sender.commit_packet(packet)
                t2r.append(packet)
        elif op == "del_t2r":
            if t2r:
                packet = t2r.pop(rng.randrange(len(t2r)))
                receiver.accept_packet(packet)
                out = packet
        elif op == "del_r2t":
            if r2t:
                packet = r2t.pop(rng.randrange(len(r2t)))
                sender.accept_packet(packet)
                out = packet
        elif op == "pop_delivery":
            message = receiver.pop_delivery()
            out = message
        else:  # pop_control
            if receiver.protocol_state()[1]:
                packet = receiver.pop_control_packet()
                r2t.append(packet)
                out = packet
        trajectory.append(
            (
                op,
                out,
                sender.protocol_state(),
                sender.packets_sent,
                sender.ready_for_message(),
                receiver.protocol_state(),
                receiver.messages_delivered,
            )
        )
    return trajectory


def drive_kernels(factory, seed, steps):
    """The same schedule through the integer kernels."""
    from repro.datalink.stations import NO_OUTPUT

    sender, receiver = factory()
    values = ValueIntern()
    pools = {Direction.T2R: _Pool(), Direction.R2T: _Pool()}
    oracle = PoolOracle(values, pools)
    skern = InterpretedSender(sender, values, oracle)
    rkern = InterpretedReceiver(receiver, values, oracle)
    vals = values.values
    rng = random.Random(seed)
    t2r, r2t = [], []
    trajectory = []
    messages = 0
    for _ in range(steps):
        op = rng.choice(OPS)
        out = None
        if op == "msg":
            if skern.ready():
                skern.accept_message(values.intern(f"m{messages}"))
                messages += 1
                out = "accepted"
        elif op == "xmit":
            vid = skern.offer()
            out = None if vid == NO_VALUE else vals[vid]
            if vid != NO_VALUE:
                skern.commit()
                t2r.append(vid)
                pools[Direction.T2R].add(vid)
        elif op == "del_t2r":
            if t2r:
                vid = t2r.pop(rng.randrange(len(t2r)))
                pools[Direction.T2R].remove(vid)
                rkern.accept(vid)
                out = vals[vid]
        elif op == "del_r2t":
            if r2t:
                vid = r2t.pop(rng.randrange(len(r2t)))
                pools[Direction.R2T].remove(vid)
                skern.accept_packet(vid)
                out = vals[vid]
        elif op == "pop_delivery":
            mvid = rkern.pop_delivery()
            out = NO_OUTPUT if mvid == NO_VALUE else vals[mvid]
        else:  # pop_control
            if receiver.protocol_state()[1]:
                vid = rkern.pop_control()
                r2t.append(vid)
                pools[Direction.R2T].add(vid)
                out = vals[vid]
        trajectory.append(
            (
                op,
                out,
                sender.protocol_state(),
                sender.packets_sent,
                skern.ready(),
                receiver.protocol_state(),
                receiver.messages_delivered,
            )
        )
    return trajectory


# ---------------------------------------------------------------------------
# the property
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, factory", CASES, ids=CASE_IDS)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       steps=st.integers(min_value=1, max_value=80))
@settings(max_examples=20, deadline=None)
def test_kernel_matches_station(name, factory, seed, steps):
    """kernel == the real automaton, step for step."""
    reference = drive_stations(factory, seed, steps)
    kernel = drive_kernels(factory, seed, steps)
    assert kernel == reference


@pytest.mark.parametrize("name, factory", CASES, ids=CASE_IDS)
def test_bulk_hooks_follow_the_gate(name, factory):
    """Only ``FloodingReceiver`` kernels get the silent-run hooks, and
    ``commit_run`` exists only where a commit cannot change the
    sender's state."""
    sender, receiver = factory()
    values = ValueIntern()
    skern = InterpretedSender(sender, values)
    rkern = InterpretedReceiver(receiver, values)
    assert (rkern.silent is None) == (rkern.absorb is None)
    if rkern.silent is not None:
        assert type(receiver) is FloodingReceiver
    if name in ("flooding_oracle", "flooding_capacity"):
        hooks = (rkern.silent, rkern.absorb, skern.commit_run)
        assert all(hook is not None for hook in hooks)
    if name in ("gobackn", "window", "forgetful"):
        # Go-Back-N and the window sender override commit_packet;
        # ForgetfulSender's on_packet_sent clears current_packet.
        assert skern.commit_run is None
