"""Unit tests for the fixed-header flooding protocols.

Includes the executable version of the freshness-certification
induction sketched in the module docstring of
:mod:`repro.datalink.flooding`: multiplicity counting plus (PL1)'s
no-duplication guarantee means the (threshold+1)-th copy of a phase
proves a fresh packet, for any phase modulus K >= 2.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels.adversary import (
    FairAdversary,
    OptimalAdversary,
    RandomAdversary,
)
from repro.channels.packets import Packet
from repro.datalink.flooding import (
    ACK,
    CAPACITY,
    DATA,
    ORACLE,
    FloodingReceiver,
    FloodingSender,
    data_packet,
    make_capacity_flooding,
    make_flooding,
)
from repro.datalink.spec import check_execution
from repro.datalink.system import make_system
from repro.ioa.actions import Direction


class TestConstruction:
    def test_rejects_zero_phases(self):
        with pytest.raises(ValueError):
            FloodingSender(phases=0)
        with pytest.raises(ValueError):
            FloodingReceiver(phases=0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            FloodingSender(mode="psychic")

    def test_oracle_mode_declares_oracle_use(self):
        sender, receiver = make_flooding(3)
        assert sender.uses_oracle
        assert receiver.uses_oracle

    def test_capacity_mode_stays_in_model(self):
        sender, receiver = make_capacity_flooding(3, 4)
        assert not sender.uses_oracle
        assert not receiver.uses_oracle

    def test_oracle_mode_without_composition_raises(self):
        sender = FloodingSender(3)
        from repro.ioa.actions import send_msg

        with pytest.raises(RuntimeError):
            sender.handle_input(send_msg("m"))

    def test_fresh_preserves_configuration(self):
        sender = FloodingSender(5, "capacity", 7)
        twin = sender.fresh()
        assert twin.phases == 5
        assert twin.mode == "capacity"
        assert twin.capacity == 7


class TestPhases:
    def test_phase_cycles_mod_k(self):
        sender, receiver = make_flooding(3)
        system = make_system(sender, receiver, adversary=OptimalAdversary())
        system.run(["m"] * 7)
        headers = {
            packet.header
            for packet in system.execution.distinct_packets(Direction.T2R)
        }
        assert headers == {("DATA", 0), ("DATA", 1), ("DATA", 2)}

    def test_header_alphabet_is_fixed(self):
        """2K headers total, independent of the message count."""
        sender, receiver = make_flooding(3)
        system = make_system(sender, receiver, adversary=OptimalAdversary())
        system.run(["m"] * 20)
        assert system.execution.header_count() <= 6


class TestEndToEnd:
    @pytest.mark.parametrize("phases", [2, 3, 5])
    def test_delivers_in_order_under_reordering(self, phases):
        system = make_system(
            *make_flooding(phases),
            adversary=FairAdversary(seed=11, p_deliver=0.35, max_delay=9),
        )
        messages = [f"m{i}" for i in range(25)]
        stats = system.run(messages, max_steps=100_000)
        assert stats.completed
        assert system.execution.received_messages() == messages
        assert check_execution(system.execution).valid

    @pytest.mark.parametrize("phases", [2, 3])
    def test_safety_under_loss_and_reordering(self, phases):
        system = make_system(
            *make_flooding(phases),
            adversary=RandomAdversary(seed=5, p_deliver=0.3, p_drop=0.2),
        )
        system.run(["m"] * 12, max_steps=60_000)
        assert check_execution(system.execution).ok

    def test_identical_bodies_are_safe(self):
        """The paper's all-messages-equal regime: counting must still
        certify freshness when every body collides."""
        system = make_system(
            *make_flooding(2),
            adversary=FairAdversary(seed=2, p_deliver=0.4, max_delay=8),
        )
        stats = system.run(["m"] * 30, max_steps=100_000)
        assert stats.completed
        assert check_execution(system.execution).valid

    def test_probabilistic_channel_safe_and_live(self):
        system = make_system(*make_flooding(3), q=0.35, seed=17)
        stats = system.run(["m"] * 12, max_steps=300_000)
        assert stats.completed
        assert check_execution(system.execution).valid


class TestK1IsBroken:
    """The induction needs K >= 2; K = 1 must actually fail."""

    def test_k1_violates_dl1_under_loss(self):
        system = make_system(*make_flooding(1), q=0.4, seed=3)
        system.run(["m"] * 25, max_steps=300_000)
        report = check_execution(system.execution)
        assert not report.ok


class TestCapacityVariant:
    def test_correct_while_assumption_holds(self):
        """With prompt delivery the stale pool stays below capacity."""
        system = make_system(
            *make_capacity_flooding(3, capacity=4),
            adversary=OptimalAdversary(),
        )
        stats = system.run(["m"] * 10)
        assert stats.completed
        assert check_execution(system.execution).valid

    def test_costs_capacity_packets_even_on_perfect_channel(self):
        system = make_system(
            *make_capacity_flooding(3, capacity=4),
            adversary=OptimalAdversary(),
        )
        stats = system.run(["m"])
        # Receiver needs capacity+1 data copies, sender capacity+1 acks.
        assert stats.packets_t2r >= 5

    def test_reordering_within_capacity_is_survived(self):
        system = make_system(
            *make_capacity_flooding(3, capacity=6),
            adversary=FairAdversary(seed=4, p_deliver=0.5, max_delay=4),
        )
        stats = system.run(["m"] * 10, max_steps=60_000)
        assert check_execution(system.execution).ok
        assert stats.completed


class TestThresholdMechanics:
    def test_receiver_threshold_counts_stale_phase_copies(self):
        """Plant stale copies, then check the receiver demands exactly
        stale+1 receipts of the fresh message."""
        sender, receiver = make_flooding(2)
        system = make_system(sender, receiver)
        # Deliver message 0 cleanly but leave 3 extra copies of the
        # phase-0 data packet in transit.
        system.submit_message("m")
        for _ in range(4):
            system.pump_sender()
        ids = system.chan_t2r.in_transit_ids()
        system.deliver_copy(Direction.T2R, ids[0])
        system.pump_receiver()
        for ack_id in system.chan_r2t.in_transit_ids():
            system.deliver_copy(Direction.R2T, ack_id)
        assert system.receiver.messages_delivered == 1
        # 3 stale phase-0 copies remain; messages 1 (phase 1) then 2
        # (phase 0).  When the receiver starts waiting for message 2 it
        # must set threshold 3.
        assert system.chan_t2r.transit_count(data_packet(0, "m")) == 3
        system.submit_message("m")  # message 1, phase 1
        for _ in range(50):
            system.step()
            # deliver everything fresh promptly
            for cid in list(system.chan_t2r.in_transit_ids()):
                copy = [
                    c
                    for c in system.chan_t2r.in_transit()
                    if c.copy_id == cid
                ][0]
                if copy.packet.header == ("DATA", 1):
                    system.deliver_copy(Direction.T2R, cid)
            for cid in list(system.chan_r2t.in_transit_ids()):
                system.deliver_copy(Direction.R2T, cid)
            system.pump_receiver()
            if system.sender.ready_for_message():
                break
        assert system.receiver.messages_delivered == 2
        assert receiver._data_threshold == 3

    def test_sender_needs_threshold_plus_one_acks(self):
        sender, receiver = make_flooding(2)
        system = make_system(sender, receiver)
        system.submit_message("m")
        system.pump_sender()
        system.deliver_copy(
            Direction.T2R, system.chan_t2r.in_transit_ids()[0]
        )
        system.pump_receiver()
        # One ack in transit, threshold was 0: one ack confirms.
        system.deliver_copy(
            Direction.R2T, system.chan_r2t.in_transit_ids()[0]
        )
        assert system.sender.ready_for_message()


class _CountingOracle:
    """Answers every threshold query with ``stale`` and counts reads."""

    def __init__(self, stale):
        self.stale = stale
        self.reads = 0

    def count_matching(self, direction, predicate):
        self.reads += 1
        return self.stale


BODIES = ["a", "b", None]

receiver_states = st.builds(
    dict,
    phases=st.integers(min_value=1, max_value=4),
    mode=st.sampled_from([ORACLE, CAPACITY]),
    capacity=st.integers(min_value=0, max_value=6),
    awaiting=st.integers(min_value=0, max_value=9),
    threshold=st.integers(min_value=0, max_value=70),
    counts=st.dictionaries(
        st.sampled_from(BODIES), st.integers(min_value=0, max_value=75)
    ),
    stale=st.integers(min_value=0, max_value=5),
)

packets = st.builds(
    lambda kind, phase, body: Packet(header=(kind, phase), body=body),
    st.sampled_from([DATA, ACK, "NACK"]),
    st.integers(min_value=0, max_value=4),
    st.sampled_from(BODIES),
)


class TestSilentCopies:
    """``silent_copies``/``absorb_copies`` are an exact lookahead of
    ``on_packet``: the batch delivery engine absorbs a run of copies in
    bulk on their strength."""

    @staticmethod
    def receiver_in(state):
        receiver = FloodingReceiver(
            state["phases"], state["mode"], state["capacity"]
        )
        receiver.oracle = _CountingOracle(state["stale"])
        receiver.set_protocol_fields(
            (
                state["awaiting"],
                state["threshold"],
                tuple(state["counts"].items()),
            )
        )
        return receiver

    @given(state=receiver_states, packet=packets)
    @settings(max_examples=200, deadline=None)
    def test_absorb_matches_repeated_on_packet(self, state, packet):
        stepped = self.receiver_in(state)
        silent = stepped.silent_copies(packet)
        assert silent >= 0
        bound = min(silent, 64)
        # j = 0 included: absorbing no copies changes nothing.
        for j in range(bound + 1):
            absorbed = self.receiver_in(state)
            absorbed.absorb_copies(packet, j)
            assert absorbed.protocol_fields() == stepped.protocol_fields()
            assert not absorbed.has_pending_output()
            assert not stepped.has_pending_output()
            assert absorbed.oracle.reads == stepped.oracle.reads == 0
            if j < bound:
                stepped.on_packet(packet)
        if silent == bound:
            # Exact, not merely safe: the next copy queues output.
            stepped.on_packet(packet)
            assert stepped.has_pending_output()
