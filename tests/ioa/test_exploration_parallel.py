"""Unit tests: the level-barrier exploration entry.

The entry's contract (see :mod:`repro.ioa.exploration_parallel`):

* for explorations that complete within the visit budget, every
  observable matches the serial entry exactly;
* truncated explorations stop at the level barrier past the budget,
  which may cover a slightly different region than the serial entry's
  exact-FIFO cut;
* an intern-table overflow keeps the progress made before it, and
  every entry reports the same progress.
"""

import pytest

from repro.datalink.alternating_bit import make_alternating_bit
from repro.datalink.broken import EagerReceiver
from repro.datalink.flooding import make_capacity_flooding
from repro.datalink.gobackn import make_gobackn
from repro.datalink.sequence import SequenceSender, make_sequence_protocol
from repro.datalink.sequence_mod import make_modular_sequence
from repro.ioa.actions import Direction
from repro.ioa.exploration import (
    ExplorationCapacityError,
    configs_per_sec,
    explore_station_states,
)
from repro.ioa.exploration_parallel import explore_station_states_parallel


def observables(result):
    """Everything the boundness analysis reads off an exploration."""
    return {
        "k_t": result.k_t,
        "k_r": result.k_r,
        "state_product": result.state_product,
        "pair_count": result.pair_count,
        "configurations": result.configurations,
        "truncated": result.truncated,
        "sender_states": result.sender_states,
        "receiver_states": result.receiver_states,
        "packet_values": {
            direction: set(values)
            for direction, values in result.packet_values.items()
        },
    }


def explore_serial(factory, alphabet, max_messages):
    sender, receiver = factory()
    return explore_station_states(
        sender, receiver, alphabet, max_messages=max_messages
    )


def explore_parallel(factory, alphabet, max_messages, **kwargs):
    sender, receiver = factory()
    return explore_station_states_parallel(
        sender, receiver, alphabet, max_messages=max_messages, **kwargs
    )


class TestSerialParallelEquivalence:
    """Complete explorations match the serial kernel exactly."""

    @pytest.mark.parametrize(
        "factory,alphabet,max_messages",
        [
            (make_alternating_bit, ["m"], 3),
            (make_alternating_bit, ["m0", "m1"], 2),
            (make_sequence_protocol, ["m"], 3),
            (lambda: make_capacity_flooding(3, 1), ["m"], 2),
        ],
    )
    def test_in_process_matches_serial(
        self, factory, alphabet, max_messages
    ):
        serial = explore_serial(factory, alphabet, max_messages)
        assert not serial.truncated
        parallel = explore_parallel(factory, alphabet, max_messages)
        assert observables(parallel) == observables(serial)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: (SequenceSender(), EagerReceiver()),
            lambda: make_gobackn(3),
            make_modular_sequence,
        ],
        ids=["eager", "gobackn", "modular_sequence"],
    )
    def test_stock_pairs_match_serial(self, factory):
        """Go-Back-N (its own offer/commit) and broken receivers
        explore identically on both entries too."""
        serial = explore_serial(factory, ["a", "b"], 2)
        assert not serial.truncated
        parallel = explore_parallel(factory, ["a", "b"], 2)
        assert observables(parallel) == observables(serial)


class TestTruncationSemantics:
    """The serial entry cuts in BFS-FIFO order at exactly the budget;
    the level-barrier entry cuts at the level barrier past it."""

    @staticmethod
    def cut(explore):
        result = explore(
            *make_capacity_flooding(3, 2), ["m0", "m1"],
            max_messages=3, max_configurations=1000,
        )
        return (result.configurations, result.truncated, result.k_t,
                result.k_r, result.pair_count)

    def test_serial_cut_is_exact(self):
        assert self.cut(explore_station_states) == (1000, True, 22, 66, 348)

    def test_sharded_cut_is_at_the_level_barrier(self):
        assert self.cut(explore_station_states_parallel) == (
            1025, True, 22, 66, 353
        )


class TestEngineRecord:
    def test_engine_metadata_recorded(self):
        result = explore_parallel(make_alternating_bit, ["m"], 3)
        engine = result.perf["engine"]
        assert set(engine) == {"name", "levels", "track_parents"}
        assert engine["name"] == "level-sync"
        assert engine["levels"] > 0
        assert engine["track_parents"] is False


class TestCapacityPartials:
    """:class:`ExplorationCapacityError` carries the partial result
    (levels completed, configurations seen) on both exploration
    entries, and every entry -- serial exploration, the level-barrier
    entry, the checker -- reports the same progress."""

    def test_serial_kernel_attaches_partial(self, monkeypatch):
        import repro.ioa.exploration as exploration

        monkeypatch.setattr(exploration, "_FIELD_MASK", 3)
        sender, receiver = make_sequence_protocol()
        with pytest.raises(ExplorationCapacityError) as excinfo:
            explore_station_states(sender, receiver, ["m"], max_messages=3)
        err = excinfo.value
        assert err.partial is not None
        assert err.partial.truncated is True
        assert err.partial.configurations >= 1
        assert err.configurations_seen == err.partial.configurations
        assert err.levels_completed >= 1

    def test_parallel_engine_attaches_partial(self, monkeypatch):
        import repro.ioa.exploration as exploration

        monkeypatch.setattr(exploration, "_FIELD_MASK", 3)
        sender, receiver = make_sequence_protocol()
        with pytest.raises(ExplorationCapacityError) as excinfo:
            explore_station_states_parallel(
                sender, receiver, ["m"], max_messages=3
            )
        err = excinfo.value
        assert err.partial is not None
        assert err.partial.truncated is True
        assert err.levels_completed is not None
        assert err.levels_completed >= 1
        assert err.configurations_seen >= 1
        assert err.configurations_seen == err.partial.configurations
        assert len(err.partial.sender_states) >= 1

    def test_single_shard_entries_report_equal_progress(self, monkeypatch):
        import repro.ioa.exploration as exploration
        from repro.checker import check_protocol

        monkeypatch.setattr(exploration, "_FIELD_MASK", 3)
        progress = []
        for explore in (
            explore_station_states,
            explore_station_states_parallel,
        ):
            with pytest.raises(ExplorationCapacityError) as excinfo:
                explore(*make_sequence_protocol(), ["m"], max_messages=3)
            err = excinfo.value
            progress.append((err.levels_completed, err.configurations_seen))
        checked = check_protocol(
            *make_sequence_protocol(), ["m"], "type-ok", max_messages=3
        )
        assert checked.verdict == "budget-exhausted"
        progress.append(
            (checked.stats["levels"], checked.stats["configurations"])
        )
        assert progress[0][1] >= 1
        assert progress == [progress[0]] * 3


class TestConfigsPerSec:
    """Satellite: 0.0 means zero work, None means unmeasurable."""

    def test_zero_work_is_zero(self):
        assert configs_per_sec(0, 0.0) == 0.0
        assert configs_per_sec(0, 1.0) == 0.0

    def test_unmeasurable_elapsed_is_none(self):
        assert configs_per_sec(5, 0.0) is None
        assert configs_per_sec(5, -1.0) is None

    def test_measurable_rate(self):
        assert configs_per_sec(5, 2.0) == 2.5

    def test_results_report_rate_or_none(self):
        serial = explore_serial(make_alternating_bit, ["m"], 3)
        rate = serial.perf["configs_per_sec"]
        assert rate is None or rate > 0
        parallel = explore_parallel(make_alternating_bit, ["m"], 3)
        rate = parallel.perf["configs_per_sec"]
        assert rate is None or rate > 0

    def test_packet_values_match_direction_enum(self):
        serial = explore_serial(make_alternating_bit, ["m"], 3)
        assert set(serial.packet_values) == {
            Direction.T2R, Direction.R2T,
        }
