"""Tests for the Theorem 5.1 probabilistic experiment driver."""

import pytest

from repro.analysis.growth import fit_exponential, fit_linear
from repro.channels.probabilistic import TricklePolicy
from repro.core.theorem51 import run_probabilistic_delivery
from repro.core.trials import TRIAL_ENGINES
from repro.datalink.flooding import make_flooding
from repro.datalink.sequence import make_sequence_protocol


class TestDriver:
    def test_delivers_requested_messages(self):
        result = run_probabilistic_delivery(
            make_sequence_protocol, q=0.2, n=20, seed=1
        )
        assert result.completed
        assert result.delivered == 20
        assert len(result.cumulative_packets) == 20

    def test_cumulative_series_is_monotone(self):
        result = run_probabilistic_delivery(
            lambda: make_flooding(3), q=0.3, n=15, seed=2
        )
        series = result.cumulative_packets
        assert all(a < b for a, b in zip(series, series[1:]))

    def test_per_message_is_first_difference(self):
        result = run_probabilistic_delivery(
            make_sequence_protocol, q=0.3, n=10, seed=3
        )
        assert sum(result.per_message_packets) == result.total_packets

    def test_seed_reproducibility(self):
        a = run_probabilistic_delivery(
            lambda: make_flooding(3), q=0.3, n=12, seed=9
        )
        b = run_probabilistic_delivery(
            lambda: make_flooding(3), q=0.3, n=12, seed=9
        )
        assert a.cumulative_packets == b.cumulative_packets

    def test_packet_budget_truncates(self):
        result = run_probabilistic_delivery(
            lambda: make_flooding(3),
            q=0.4,
            n=60,
            seed=1,
            packet_budget=2_000,
        )
        assert not result.completed or result.total_packets < 4_000
        assert result.total_packets >= 2_000 or result.delivered < 60

    @pytest.mark.parametrize(
        "name, kwargs",
        [("n", dict(n=-1)), ("max_steps", dict(n=3, max_steps=-1))],
    )
    def test_negative_counts_are_rejected_on_every_tier(self, name, kwargs):
        messages = set()
        for engine in TRIAL_ENGINES:
            with pytest.raises(ValueError) as excinfo:
                run_probabilistic_delivery(
                    make_sequence_protocol, q=0.2, engine=engine, **kwargs
                )
            messages.add(str(excinfo.value))
        (message,) = messages
        assert message.startswith(f"{name} must be non-negative")

    def test_zero_counts_are_accepted(self):
        result = run_probabilistic_delivery(
            make_sequence_protocol, q=0.2, n=0, max_steps=0
        )
        assert result.completed and result.delivered == 0


class TestShapes:
    """The theorem's qualitative content."""

    def test_flooding_grows_faster_than_naive(self):
        flood = run_probabilistic_delivery(
            lambda: make_flooding(3), q=0.3, n=25, seed=4
        )
        naive = run_probabilistic_delivery(
            make_sequence_protocol, q=0.3, n=25, seed=4
        )
        assert flood.total_packets > 3 * naive.total_packets

    def test_flooding_backlog_compounds(self):
        short = run_probabilistic_delivery(
            lambda: make_flooding(3), q=0.3, n=10, seed=5
        )
        long = run_probabilistic_delivery(
            lambda: make_flooding(3), q=0.3, n=30, seed=5
        )
        # Tripling n should much-more-than-triple the delayed pool.
        assert long.final_backlog_t2r > 4 * max(short.final_backlog_t2r, 1)

    def test_naive_fits_linear_better_than_flooding(self):
        flood = run_probabilistic_delivery(
            lambda: make_flooding(3), q=0.4, n=25, seed=6
        )
        naive = run_probabilistic_delivery(
            make_sequence_protocol, q=0.4, n=25, seed=6
        )
        xs = [float(i) for i in range(1, 26)]
        flood_linear = fit_linear(xs, [float(y) for y in flood.cumulative_packets])
        flood_exp = fit_exponential(xs, [float(y) for y in flood.cumulative_packets])
        naive_linear = fit_linear(xs, [float(y) for y in naive.cumulative_packets])
        assert flood_exp.r_squared > flood_linear.r_squared
        assert naive_linear.r_squared > 0.98

    def test_blowup_increases_with_q(self):
        totals = []
        for q in (0.1, 0.3, 0.5):
            result = run_probabilistic_delivery(
                lambda: make_flooding(3), q=q, n=20, seed=7,
                packet_budget=200_000,
            )
            totals.append(result.total_packets)
        assert totals[0] < totals[1] < totals[2]

    def test_trickle_reduces_cost(self):
        never = run_probabilistic_delivery(
            lambda: make_flooding(3), q=0.3, n=20, seed=8,
            trickle=TricklePolicy.NEVER,
        )
        uniform = run_probabilistic_delivery(
            lambda: make_flooding(3), q=0.3, n=20, seed=8,
            trickle=TricklePolicy.UNIFORM,
        )
        assert uniform.total_packets < never.total_packets
