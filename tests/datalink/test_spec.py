"""Unit tests for the (DL)/(PL) specification checkers."""

from repro.datalink.spec import (
    check_dl1,
    check_dl1_dl2,
    check_execution,
    check_liveness,
    check_pl1,
)
from repro.ioa.actions import (
    Direction,
    receive_msg,
    receive_pkt,
    send_msg,
    send_pkt,
)
from repro.ioa.execution import Execution


def execution_of(*actions) -> Execution:
    execution = Execution()
    execution.extend(actions)
    return execution


class TestPL1:
    def test_clean_exchange_passes(self):
        execution = execution_of(
            send_pkt(Direction.T2R, "p", copy_id=0),
            receive_pkt(Direction.T2R, "p", copy_id=0),
        )
        assert check_pl1(execution, Direction.T2R) is None

    def test_receipt_without_send_is_forgery(self):
        execution = execution_of(
            receive_pkt(Direction.T2R, "p", copy_id=0)
        )
        violation = check_pl1(execution, Direction.T2R)
        assert violation is not None
        assert violation.property_name == "PL1"

    def test_double_receipt_is_duplication(self):
        execution = execution_of(
            send_pkt(Direction.T2R, "p", copy_id=0),
            receive_pkt(Direction.T2R, "p", copy_id=0),
            receive_pkt(Direction.T2R, "p", copy_id=0),
        )
        assert check_pl1(execution, Direction.T2R) is not None

    def test_value_corruption_detected(self):
        execution = execution_of(
            send_pkt(Direction.T2R, "p", copy_id=0),
            receive_pkt(Direction.T2R, "q", copy_id=0),
        )
        violation = check_pl1(execution, Direction.T2R)
        assert violation is not None
        assert "corruption" in violation.description

    def test_initial_transit_allows_old_copies(self):
        execution = execution_of(
            receive_pkt(Direction.T2R, "p", copy_id=5)
        )
        assert (
            check_pl1(execution, Direction.T2R, initial_transit={5}) is None
        )

    def test_directions_are_independent(self):
        execution = execution_of(
            receive_pkt(Direction.R2T, "p", copy_id=0)
        )
        assert check_pl1(execution, Direction.T2R) is None
        assert check_pl1(execution, Direction.R2T) is not None

    def test_loss_is_allowed(self):
        execution = execution_of(send_pkt(Direction.T2R, "p", copy_id=0))
        assert check_pl1(execution, Direction.T2R) is None


class TestDL1:
    def test_matching_delivery_passes(self):
        execution = execution_of(send_msg("a"), receive_msg("a"))
        assert check_dl1(execution) is None

    def test_forged_delivery_detected(self):
        execution = execution_of(receive_msg("a"))
        violation = check_dl1(execution)
        assert violation is not None
        assert violation.property_name == "DL1"

    def test_duplicate_delivery_detected(self):
        execution = execution_of(
            send_msg("a"), receive_msg("a"), receive_msg("a")
        )
        assert check_dl1(execution) is not None

    def test_rm_equals_sm_plus_one_detected(self):
        """The invalid executions the lower-bound adversaries build."""
        execution = execution_of(
            send_msg("m"),
            receive_msg("m"),
            receive_msg("m"),
        )
        assert check_dl1(execution) is not None

    def test_delivery_before_send_detected(self):
        execution = execution_of(receive_msg("a"), send_msg("a"))
        assert check_dl1(execution) is not None

    def test_equal_payloads_matched_by_multiplicity(self):
        execution = execution_of(
            send_msg("m"),
            send_msg("m"),
            receive_msg("m"),
            receive_msg("m"),
        )
        assert check_dl1(execution) is None

    def test_out_of_order_ok_for_dl1_alone(self):
        """(DL1) does not require FIFO -- that is (DL2)'s job."""
        execution = execution_of(
            send_msg("a"),
            send_msg("b"),
            receive_msg("b"),
            receive_msg("a"),
        )
        assert check_dl1(execution) is None


class TestDL2:
    def test_fifo_order_passes(self):
        execution = execution_of(
            send_msg("a"),
            send_msg("b"),
            receive_msg("a"),
            receive_msg("b"),
        )
        assert check_dl1_dl2(execution) is None

    def test_reordered_distinct_messages_detected(self):
        execution = execution_of(
            send_msg("a"),
            send_msg("b"),
            receive_msg("b"),
            receive_msg("a"),
        )
        assert check_dl1_dl2(execution) is not None

    def test_skipping_a_pending_message_is_allowed(self):
        """Finite prefixes may have undelivered messages in flight."""
        execution = execution_of(
            send_msg("a"),
            send_msg("b"),
            receive_msg("b"),
        )
        # 'a' is skipped (pending forever); order-preserving matching
        # of the delivered subsequence exists.
        assert check_dl1_dl2(execution) is None

    def test_duplicate_detected_under_dl2_too(self):
        execution = execution_of(
            send_msg("a"),
            receive_msg("a"),
            receive_msg("a"),
        )
        assert check_dl1_dl2(execution) is not None

    def test_interleaved_same_payload(self):
        execution = execution_of(
            send_msg("m"),
            receive_msg("m"),
            send_msg("m"),
            receive_msg("m"),
        )
        assert check_dl1_dl2(execution) is None


class TestLiveness:
    def test_all_delivered_means_zero_pending(self):
        execution = execution_of(send_msg("a"), receive_msg("a"))
        assert check_liveness(execution) == 0

    def test_pending_counted(self):
        execution = execution_of(send_msg("a"), send_msg("b"),
                                 receive_msg("a"))
        assert check_liveness(execution) == 1

    def test_forged_delivery_leaves_nothing_pending(self):
        """A forged receipt matches no send: sm 1 and rm 2 leave 0
        pending, not -1."""
        execution = execution_of(
            send_msg("m"), receive_msg("m"), receive_msg("m")
        )
        assert check_liveness(execution) == 0
        assert check_execution(execution).pending_messages == 0

    def test_wrong_payload_does_not_deliver_the_sent_one(self):
        execution = execution_of(send_msg("a"), receive_msg("b"))
        assert check_liveness(execution) == 1


class TestCombinedReport:
    def test_valid_execution(self):
        execution = execution_of(
            send_msg("a"),
            send_pkt(Direction.T2R, "p", copy_id=0),
            receive_pkt(Direction.T2R, "p", copy_id=0),
            receive_msg("a"),
        )
        report = check_execution(execution)
        assert report.ok
        assert report.valid
        assert report.pending_messages == 0

    def test_invalid_execution_collects_violations(self):
        execution = execution_of(
            send_msg("a"),
            receive_msg("a"),
            receive_msg("a"),
            receive_pkt(Direction.T2R, "p", copy_id=9),
        )
        report = check_execution(execution)
        assert not report.ok
        names = {v.property_name for v in report.violations}
        assert "DL1" in names
        assert "PL1" in names

    def test_by_property_filter(self):
        execution = execution_of(receive_msg("x"))
        report = check_execution(execution)
        assert report.by_property("DL1")
        assert not report.by_property("PL1")

    def test_semi_valid_is_ok_but_not_valid(self):
        execution = execution_of(send_msg("a"))
        report = check_execution(execution)
        assert report.ok
        assert not report.valid
        assert report.pending_messages == 1
