"""Tests for boundness measurement and Theorem 2.1 verification."""

import pytest

from repro.core.boundness import (
    check_mf_bounded_sample,
    check_pf_bounded_sample,
    measure_boundness,
    verify_theorem21,
)
from repro.core.theorem41 import plant_backlog
from repro.datalink.alternating_bit import make_alternating_bit
from repro.datalink.flooding import make_capacity_flooding, make_flooding
from repro.datalink.sequence import make_sequence_protocol
from repro.datalink.system import make_system

FAST = {
    "prefix_lengths": (0, 1, 2),
    "seeds": (0, 1),
    "max_steps": 4_000,
}


class TestMeasureBoundness:
    def test_sequence_protocol_is_tightly_bounded(self):
        report = measure_boundness(make_sequence_protocol, **FAST)
        assert report.samples
        assert report.all_delivered
        # One fresh data packet always suffices under an optimal
        # channel: the naive protocol is 1-bounded.
        assert report.boundness == 1

    def test_abp_is_constant_bounded(self):
        report = measure_boundness(make_alternating_bit, **FAST)
        assert report.samples
        assert report.boundness <= 2

    def test_flooding_boundness_grows_with_backlog(self):
        """Oracle flooding is P_f-bounded (linear f) but NOT constant
        bounded: planted backlog shows up in the extension cost."""
        report = measure_boundness(lambda: make_flooding(2), **FAST)
        baseline = report.boundness
        system, _, _ = plant_backlog(lambda: make_flooding(2), 40)
        from repro.core.extensions import find_extension

        loaded = find_extension(system, message="m")
        assert loaded.delivered
        assert loaded.sp_t2r > baseline + 10

    def test_worst_sample_is_reported(self):
        report = measure_boundness(make_sequence_protocol, **FAST)
        worst = report.worst()
        assert worst is not None
        assert worst.extension_packets == report.boundness


class TestVerifyTheorem21:
    def test_abp(self):
        verdict = verify_theorem21(
            make_alternating_bit,
            boundness_kwargs=FAST,
            exploration_kwargs={"max_messages": 2},
        )
        assert verdict.holds
        assert verdict.state_product == 8  # 4 sender x 2 receiver states
        assert verdict.boundness <= verdict.state_product

    def test_sequence(self):
        verdict = verify_theorem21(
            make_sequence_protocol,
            boundness_kwargs=FAST,
            exploration_kwargs={"max_messages": 2},
        )
        assert verdict.holds

    def test_capacity_flooding_region_is_exhaustive(self):
        """The forgery-free region of E1's capacity-flood(K=2,B=1) row
        is finite: 16 configurations, k_t 7 and k_r 6, where the full
        abstract region never ends."""
        verdict = verify_theorem21(
            lambda: make_capacity_flooding(2, 1),
            boundness_kwargs=FAST,
            exploration_kwargs={
                "max_messages": 2, "max_configurations": 60_000,
            },
        )
        assert not verdict.exploration.truncated
        assert verdict.exploration.configurations == 16
        assert verdict.state_product == 42
        assert verdict.holds

    @pytest.mark.parametrize(
        "factory, budget",
        [
            (lambda: make_capacity_flooding(2, 1), 3),
            (make_alternating_bit, 3),
            (make_alternating_bit, 5),
        ],
        ids=["capacity-flood-2-1-at-3", "abp-at-3", "abp-at-5"],
    )
    def test_truncated_search_does_not_verify(self, factory, budget):
        """A truncated search covers only part of the region, so its
        product bounds nothing, even where the measured boundness
        stays under it."""
        verdict = verify_theorem21(
            factory,
            boundness_kwargs={
                "prefix_lengths": (0, 1, 2), "seeds": (0, 1),
                "max_steps": 5000,
            },
            exploration_kwargs={
                "max_messages": 2, "max_configurations": budget,
            },
        )
        assert verdict.exploration.truncated
        assert verdict.boundness <= verdict.state_product
        assert not verdict.holds


class TestDefinitionCheckers:
    def test_mf_bounded_sample_accepts_generous_f(self):
        system = make_system(*make_sequence_protocol())
        assert check_mf_bounded_sample(system, f=lambda sm: 10 + sm)

    def test_mf_bounded_sample_rejects_zero_f(self):
        system = make_system(*make_sequence_protocol())
        assert not check_mf_bounded_sample(system, f=lambda sm: 0)

    def test_pf_bounded_flooding_linear_f_accepted(self):
        """[Afe88]'s claim, on our stand-in: linear f suffices."""
        system, _, _ = plant_backlog(lambda: make_flooding(3), 30)
        assert check_pf_bounded_sample(system, f=lambda l: l + 1)

    def test_pf_bounded_flooding_sublinear_f_rejected(self):
        """Theorem 4.1's claim: f(l) = floor(l/k) is not enough."""
        system, _, _ = plant_backlog(lambda: make_flooding(3), 60)
        assert not check_pf_bounded_sample(system, f=lambda l: l // 3)
