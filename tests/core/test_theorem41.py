"""Tests for the Theorem 4.1 backlog machinery."""

import pytest

from repro.core.theorem41 import (
    plant_backlog,
    probe_backlog_cost,
    run_dichotomy,
)
from repro.datalink.alternating_bit import make_alternating_bit
from repro.datalink.flooding import make_flooding
from repro.datalink.sequence import make_sequence_protocol
from repro.datalink.spec import check_execution
from repro.ioa.execution import TraceMode


class TestPlantBacklog:
    def test_plants_requested_backlog(self):
        system, pool, spent = plant_backlog(lambda: make_flooding(3), 30)
        # l-hat = k * floor(l/k) = 3 * 10 = 30.
        assert pool.total() == 30
        assert system.chan_t2r.transit_size() >= 30
        assert spent >= 1

    def test_spread_is_even_across_values(self):
        _, pool, _ = plant_backlog(lambda: make_flooding(3), 30)
        counts = [c for c in pool.counts.values() if c]
        assert len(counts) == 3
        assert max(counts) - min(counts) == 0

    def test_resulting_execution_is_valid(self):
        system, _, _ = plant_backlog(lambda: make_flooding(2), 12)
        assert check_execution(system.execution).valid

    def test_small_backlog_still_plants_per_value(self):
        _, pool, _ = plant_backlog(lambda: make_flooding(6), 8)
        # floor(8/6) = 1 -> one copy of each of the 6 values.
        assert pool.total() == 6

    def test_works_for_growing_header_protocols(self):
        system, pool, _ = plant_backlog(make_sequence_protocol, 16)
        assert pool.total() >= 16
        assert check_execution(system.execution).valid

    @pytest.mark.parametrize(
        "name",
        ["backlog", "max_messages", "max_steps_per_message",
         "discovery_messages"],
    )
    @pytest.mark.parametrize(
        "engine, trace_mode",
        [("batch", TraceMode.COUNTS), ("interpreted", TraceMode.FULL)],
    )
    def test_negative_counts_are_rejected_on_every_tier(
        self, name, engine, trace_mode
    ):
        kwargs = {"backlog": 8, name: -1}
        with pytest.raises(ValueError, match=f"^{name} must be non-negative"):
            plant_backlog(
                make_alternating_bit, trace_mode=trace_mode, engine=engine,
                **kwargs,
            )

    def test_zero_backlog_plants_one_copy_per_value(self):
        for engine in ("batch", "interpreted"):
            _, pool, _ = plant_backlog(
                lambda: make_flooding(3), 0,
                trace_mode=TraceMode.COUNTS, engine=engine,
            )
            assert pool.total() == 3


class TestProbe:
    def test_cost_grows_linearly_with_backlog(self):
        costs = {}
        for backlog in (0, 30, 120):
            probe = probe_backlog_cost(lambda: make_flooding(3), backlog)
            costs[backlog] = probe.extension_packets
        assert costs[0] < costs[30] < costs[120]
        # Within 2x of proportionality between the two nonzero points.
        assert costs[120] / max(costs[30], 1) == pytest.approx(4.0, rel=0.5)

    def test_cost_respects_lower_bound(self):
        probe = probe_backlog_cost(lambda: make_flooding(3), 60)
        assert probe.extension_packets > probe.lower_bound

    def test_headers_equal_phase_count(self):
        probe = probe_backlog_cost(lambda: make_flooding(4), 16)
        assert probe.headers == 4

    def test_naive_protocol_escapes(self):
        probe = probe_backlog_cost(make_sequence_protocol, 24)
        assert probe.extension_packets <= 3


class TestDichotomy:
    def test_flooding_exceeds_bound(self):
        outcome = run_dichotomy(lambda: make_flooding(3), 12)
        assert outcome.theorem_confirmed
        assert outcome.exceeded_bound
        assert not outcome.forged

    def test_abp_gets_forged(self):
        outcome = run_dichotomy(make_alternating_bit, 12)
        assert outcome.theorem_confirmed
        assert outcome.forged
        assert outcome.replay is not None
        assert outcome.replay.forged_deliveries == 1

    @pytest.mark.parametrize("backlog", [6, 18, 36])
    def test_dichotomy_holds_across_levels(self, backlog):
        outcome = run_dichotomy(lambda: make_flooding(2), backlog)
        assert outcome.theorem_confirmed
