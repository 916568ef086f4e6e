"""Unit tests for the station base classes."""

import pytest

from repro.channels.packets import Packet
from repro.datalink.sequence import SequenceReceiver, SequenceSender
from repro.datalink.stations import ReceiverStation, SenderStation
from repro.ioa.actions import (
    ActionType,
    Direction,
    receive_pkt,
    send_msg,
    send_pkt,
)


class TestSenderPlumbing:
    def test_send_msg_routes_to_hook(self):
        sender = SequenceSender()
        sender.handle_input(send_msg("a"))
        assert not sender.ready_for_message()

    def test_wrong_direction_packet_rejected(self):
        sender = SequenceSender()
        with pytest.raises(ValueError):
            sender.handle_input(
                receive_pkt(Direction.T2R, Packet(header="x"))
            )

    def test_output_offered_while_current_packet_set(self):
        sender = SequenceSender()
        sender.handle_input(send_msg("a"))
        first = sender.next_output()
        second = sender.next_output()
        assert first is not None
        assert first.type is ActionType.SEND_PKT
        assert first == second  # side-effect free peek

    def test_no_output_when_idle(self):
        assert SequenceSender().next_output() is None

    def test_perform_output_counts(self):
        sender = SequenceSender()
        sender.handle_input(send_msg("a"))
        action = sender.next_output()
        sender.perform_output(action)
        sender.perform_output(action)
        assert sender.packets_sent == 2

    def test_unexpected_output_direction_rejected(self):
        sender = SequenceSender()
        with pytest.raises(ValueError):
            sender.handle_input(send_pkt(Direction.T2R, Packet(header="x")))


class TestReceiverPlumbing:
    def make_receiver(self) -> SequenceReceiver:
        return SequenceReceiver()

    def data(self, seq, body="a") -> Packet:
        return Packet(header=("DATA", seq), body=body)

    def test_delivery_takes_priority_over_packets(self):
        receiver = self.make_receiver()
        receiver.handle_input(receive_pkt(Direction.T2R, self.data(0)))
        first = receiver.next_output()
        assert first.type is ActionType.RECEIVE_MSG
        receiver.perform_output(first)
        second = receiver.next_output()
        assert second.type is ActionType.SEND_PKT

    def test_queues_drain_to_quiescence(self):
        receiver = self.make_receiver()
        receiver.handle_input(receive_pkt(Direction.T2R, self.data(0)))
        while receiver.next_output() is not None:
            receiver.perform_output(receiver.next_output())
        assert receiver.next_output() is None
        assert receiver.messages_delivered == 1

    def test_wrong_direction_input_rejected(self):
        receiver = self.make_receiver()
        with pytest.raises(ValueError):
            receiver.handle_input(
                receive_pkt(Direction.R2T, Packet(header="x"))
            )

    def test_message_input_rejected(self):
        receiver = self.make_receiver()
        with pytest.raises(ValueError):
            receiver.handle_input(send_msg("a"))


class TestSnapshotRoundTrip:
    def test_sender_snapshot_restore(self):
        sender = SequenceSender()
        sender.handle_input(send_msg("a"))
        snap = sender.snapshot()
        twin = SequenceSender()
        twin.restore(snap)
        assert twin.next_output() == sender.next_output()
        assert twin.packets_sent == sender.packets_sent

    def test_receiver_snapshot_restore(self):
        receiver = SequenceReceiver()
        receiver.handle_input(
            receive_pkt(Direction.T2R, Packet(header=("DATA", 0), body="a"))
        )
        snap = receiver.snapshot()
        twin = SequenceReceiver()
        twin.restore(snap)
        assert twin.next_output() == receiver.next_output()

    def test_snapshot_is_immune_to_mutation(self):
        sender = SequenceSender()
        snap = sender.snapshot()
        sender.handle_input(send_msg("a"))
        twin = SequenceSender()
        twin.restore(snap)
        assert twin.ready_for_message()

    def test_clone_is_equal_but_independent(self):
        sender = SequenceSender()
        sender.handle_input(send_msg("a"))
        twin = sender.clone()
        assert twin.next_output() == sender.next_output()
        # Advance the twin only.
        twin.handle_input(
            receive_pkt(Direction.R2T, Packet(header=("ACK", 0)))
        )
        assert twin.ready_for_message()
        assert not sender.ready_for_message()


class TestProtocolState:
    def test_protocol_state_excludes_counters(self):
        sender = SequenceSender()
        sender.handle_input(send_msg("a"))
        action = sender.next_output()
        before = sender.protocol_state()
        sender.perform_output(action)  # bumps packets_sent only
        assert sender.protocol_state() == before
        assert sender.snapshot() != (before,)

    def test_receiver_protocol_state_excludes_delivery_counter(self):
        receiver = SequenceReceiver()
        receiver.handle_input(
            receive_pkt(Direction.T2R, Packet(header=("DATA", 0), body="a"))
        )
        # Drain outputs; the only difference from a fresh receiver that
        # never delivered should be the expected-seq field and the
        # delivery counter -- and the counter is excluded.
        while receiver.next_output() is not None:
            receiver.perform_output(receiver.next_output())
        state = receiver.protocol_state()
        assert receiver.messages_delivered == 1
        assert "1" not in str(state) or state[-1] == (1,)


FIXED_BOTH = [
    "handle_input", "next_output", "perform_output", "accept_packet",
    "snapshot", "restore", "protocol_state",
]


def _subclass(base, name):
    """Define a subclass of ``base`` that overrides ``name``."""
    return type("Custom", (base,), {name: lambda self, *args: None})


class TestFixedPlumbing:
    """The plumbing the exploration and the batch engines rely on is
    fixed at class creation; the protocol hooks stay open."""

    @pytest.mark.parametrize("name", FIXED_BOTH + ["accept_message"])
    def test_sender_override_raises(self, name):
        with pytest.raises(TypeError, match=rf"SenderStation\.{name}\b"):
            _subclass(SenderStation, name)

    @pytest.mark.parametrize(
        "name",
        FIXED_BOTH + [
            "pop_delivery", "pop_control_packet", "has_pending_output",
        ],
    )
    def test_receiver_override_raises(self, name):
        with pytest.raises(TypeError, match=rf"ReceiverStation\.{name}\b"):
            _subclass(ReceiverStation, name)

    def test_override_through_a_mixin_raises(self):
        class Mixin:
            def pop_delivery(self):
                return None

        with pytest.raises(TypeError, match="pop_delivery"):
            type("Custom", (Mixin, ReceiverStation), {})

    @pytest.mark.parametrize(
        "name", ["offer_packet", "commit_packet", "on_packet_sent"]
    )
    def test_sender_hooks_stay_overridable(self, name):
        assert issubclass(_subclass(SenderStation, name), SenderStation)

    def test_receiver_lookahead_stays_overridable(self):
        cls = _subclass(ReceiverStation, "silent_copies")
        assert issubclass(cls, ReceiverStation)
