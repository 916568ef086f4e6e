"""Unit tests for reachable-state exploration (Theorem 2.1 machinery)."""

import pytest

from repro.datalink.alternating_bit import make_alternating_bit
from repro.datalink.flooding import make_capacity_flooding
from repro.datalink.gobackn import make_gobackn
from repro.datalink.sequence import make_sequence_protocol
from repro.datalink.window import make_window_protocol
from repro.ioa.automaton import IOAutomaton
from repro.ioa.exploration import explore_station_states


class TestAlternatingBit:
    """ABP over a unary alphabet has a tiny, exactly known state space."""

    def test_sender_state_count(self):
        sender, receiver = make_alternating_bit()
        result = explore_station_states(sender, receiver, ["m"],
                                        max_messages=3)
        # Sender protocol state: (current_packet, bit, pending).
        # Reachable: bit in {0,1} x {idle, sending} = 4.
        assert result.k_t == 4

    def test_receiver_state_count(self):
        sender, receiver = make_alternating_bit()
        result = explore_station_states(sender, receiver, ["m"],
                                        max_messages=3)
        # Receiver protocol state: expected bit in {0,1} (queues always
        # flushed).
        assert result.k_r == 2

    def test_not_truncated(self):
        sender, receiver = make_alternating_bit()
        result = explore_station_states(sender, receiver, ["m"],
                                        max_messages=3)
        assert not result.truncated

    def test_packet_values_discovered(self):
        sender, receiver = make_alternating_bit()
        result = explore_station_states(sender, receiver, ["m"],
                                        max_messages=3)
        from repro.ioa.actions import Direction

        # Both data bits eventually sent.
        headers = {
            packet.header
            for packet in result.packet_values[Direction.T2R]
        }
        assert headers == {("DATA", 0), ("DATA", 1)}


class TestSequenceProtocol:
    def test_states_grow_with_message_budget(self):
        small = explore_station_states(
            *make_sequence_protocol(), ["m"], max_messages=1
        )
        large = explore_station_states(
            *make_sequence_protocol(), ["m"], max_messages=3
        )
        # Fresh headers per message mean fresh states per message.
        assert large.k_t > small.k_t
        assert large.k_r > small.k_r

    def test_pair_count_at_most_product(self):
        result = explore_station_states(
            *make_sequence_protocol(), ["m"], max_messages=2
        )
        assert result.pair_count <= result.state_product * (
            2 + 1
        )  # pairs multiplied by injected-count projection at most


class TestBudget:
    def test_truncation_flag(self):
        sender, receiver = make_sequence_protocol()
        result = explore_station_states(
            sender, receiver, ["m"], max_messages=5, max_configurations=10
        )
        assert result.truncated
        assert result.configurations <= 10

    def test_zero_messages_explores_initial_only(self):
        sender, receiver = make_alternating_bit()
        result = explore_station_states(
            sender, receiver, ["m"], max_messages=0
        )
        assert result.k_t == 1
        assert result.k_r == 1


class TestAlphabet:
    def test_larger_alphabet_more_sender_states(self):
        unary = explore_station_states(
            *make_alternating_bit(), ["m"], max_messages=2
        )
        binary = explore_station_states(
            *make_alternating_bit(), ["m", "n"], max_messages=2
        )
        # Pending message bodies distinguish sender states.
        assert binary.k_t >= unary.k_t


class TestWindowSenders:
    """Senders that override ``offer_packet``/``commit_packet`` are
    explored through those methods."""

    @pytest.mark.parametrize(
        "factory, expected",
        [
            (lambda: make_gobackn(3), (21, 4, 46, 140)),
            (lambda: make_window_protocol(2), (23, 7, 52, 75)),
        ],
        ids=["gobackn-3", "window-2"],
    )
    def test_counts(self, factory, expected):
        result = explore_station_states(*factory(), ["m"], max_messages=3)
        assert not result.truncated
        assert (
            result.k_t, result.k_r, result.pair_count, result.configurations
        ) == expected


class Idle(IOAutomaton):
    """An automaton with no outputs that is not a station."""

    def handle_input(self, action):
        pass

    def next_output(self):
        return None

    def perform_output(self, action):
        pass

    def snapshot(self):
        return ()

    def restore(self, snap):
        pass


class TestNonStations:
    def test_non_station_sender_rejected(self):
        _, receiver = make_alternating_bit()
        with pytest.raises(TypeError, match="SenderStation"):
            explore_station_states(Idle(), receiver, ["m"])

    def test_non_station_receiver_rejected(self):
        sender, _ = make_alternating_bit()
        with pytest.raises(TypeError, match="ReceiverStation"):
            explore_station_states(sender, Idle(), ["m"])


class TestForgeryFree:
    """``forgery_free`` keeps the search to configurations that
    delivered no more messages than were injected; the default keeps
    the full abstract region."""

    @pytest.mark.parametrize(
        "factory, max_messages, expected, pruned",
        [
            (make_alternating_bit, 3, (4, 2, 13, False), 4),
            (lambda: make_capacity_flooding(2, 1), 2, (7, 6, 16, False), 3),
            (lambda: make_capacity_flooding(3, 1), 2, (7, 5, 13, False), 0),
            (make_sequence_protocol, 2, (5, 3, 9, False), 0),
        ],
        ids=["alternating-bit", "capacity-flood-2-1", "capacity-flood-3-1",
             "sequence-number"],
    )
    def test_e1_rows_are_exhaustive(self, factory, max_messages, expected,
                                    pruned):
        """E1's rows, with the forged deliveries each search dropped."""
        result = explore_station_states(
            *factory(), ["m"], max_messages=max_messages,
            max_configurations=60_000, forgery_free=True,
        )
        assert (
            result.k_t, result.k_r, result.configurations, result.truncated
        ) == expected
        assert result.perf["successors_pruned"] == pruned

    def test_default_keeps_the_full_region(self):
        """Without the prune the same row never ends: its k_r grows
        with the budget (budget/3 + 2)."""
        result = explore_station_states(
            *make_capacity_flooding(2, 1), ["m"], max_messages=2,
            max_configurations=60_000,
        )
        assert (
            result.k_t, result.k_r, result.configurations, result.truncated
        ) == (7, 20_002, 60_000, True)
        assert result.perf["successors_pruned"] == 0
