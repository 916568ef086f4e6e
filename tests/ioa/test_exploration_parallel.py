"""Unit tests: the level-barrier exploration entry and checkpoint/resume.

The entry's contract (see :mod:`repro.ioa.exploration_parallel`):

* for explorations that complete within the visit budget, every
  observable matches the serial entry exactly;
* truncated explorations stop at the level barrier past the budget,
  which may cover a slightly different region than the serial entry's
  exact-FIFO cut;
* a checkpointed run resumed after an interruption finishes with
  exactly the observables of an uninterrupted run;
* checkpoints are salted with ``KERNEL_VERSION`` and ignore stale
  generations.
"""

import os

import pytest

from repro.datalink.alternating_bit import make_alternating_bit
from repro.datalink.broken import EagerReceiver
from repro.datalink.flooding import make_capacity_flooding
from repro.datalink.gobackn import make_gobackn
from repro.datalink.sequence import SequenceSender, make_sequence_protocol
from repro.datalink.sequence_mod import make_modular_sequence
from repro.ioa.actions import Direction
from repro.ioa.exploration import configs_per_sec, explore_station_states
from repro.ioa.exploration_parallel import (
    checkpoint_key,
    checkpoint_path,
    explore_station_states_parallel,
)


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
        """Pairs outside the table compiler's reach (Go-Back-N's own
        plumbing) and broken receivers explore identically too."""
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


class TestCheckpointResume:
    def run_pair(self, tmp_path):
        kwargs = dict(checkpoint_every=2, checkpoint_dir=str(tmp_path))
        interrupted = explore_parallel(
            make_alternating_bit, ["m"], 2,
            max_configurations=10, **kwargs,
        )
        assert interrupted.truncated
        assert interrupted.perf["engine"]["checkpoints_written"] > 0
        resumed = explore_parallel(
            make_alternating_bit, ["m"], 2, **kwargs,
        )
        return interrupted, resumed

    def test_interrupt_resume_matches_fresh(self, tmp_path):
        interrupted, resumed = self.run_pair(tmp_path)
        engine = resumed.perf["engine"]
        assert engine["resumed_from"] is not None
        assert engine["resumed_from"]["visited"] == (
            interrupted.configurations
        )
        fresh = explore_serial(make_alternating_bit, ["m"], 2)
        assert observables(resumed) == observables(fresh)

    def test_checkpoint_file_written_under_dir(self, tmp_path):
        explore_parallel(
            make_alternating_bit, ["m"], 2, checkpoint_dir=str(tmp_path),
        )
        names = os.listdir(tmp_path)
        assert len(names) == 1
        assert names[0].endswith(".ckpt")

    def test_resume_false_ignores_checkpoint(self, tmp_path):
        self.run_pair(tmp_path)
        fresh = explore_parallel(
            make_alternating_bit, ["m"], 2,
            max_configurations=10,
            checkpoint_dir=str(tmp_path), resume=False,
        )
        assert fresh.perf["engine"]["resumed_from"] is None
        assert fresh.truncated
        # Starting over, the budget allows at most one extra level past
        # the cap -- nowhere near the finished search a resume reaches.
        assert fresh.configurations >= 10

    def test_completed_checkpoint_resumes_to_same_result(self, tmp_path):
        first = explore_parallel(
            make_alternating_bit, ["m"], 2, checkpoint_dir=str(tmp_path),
        )
        assert not first.truncated
        again = explore_parallel(
            make_alternating_bit, ["m"], 2, checkpoint_dir=str(tmp_path),
        )
        assert again.perf["engine"]["resumed_from"] is not None
        assert again.perf["engine"]["session_configurations"] == 0
        assert observables(again) == observables(first)

    def test_engine_metadata_recorded(self):
        result = explore_parallel(make_alternating_bit, ["m"], 3)
        engine = result.perf["engine"]
        assert engine["name"] == "level-sync"
        assert engine["levels"] > 0
        assert engine["store"] == "memory"
        assert not engine["checkpointing"]
        assert engine["checkpoints_written"] == 0
        assert engine["resumed_from"] is None


class TestCheckpointHygiene:
    """Checkpoints are salted exactly like cached results."""

    def test_key_distinguishes_identity(self):
        sender, receiver = make_alternating_bit()
        base = checkpoint_key(sender, receiver, ["m"], 2)
        assert checkpoint_key(sender, receiver, ["m"], 3) != base
        assert checkpoint_key(sender, receiver, ["m", "n"], 2) != base
        other_s, other_r = make_sequence_protocol()
        assert checkpoint_key(other_s, other_r, ["m"], 2) != base
        assert checkpoint_key(sender, receiver, ["m"], 2) == base

    def test_kernel_version_bump_invalidates(self, tmp_path, monkeypatch):
        """A checkpoint written before a KERNEL_VERSION bump must not
        be resumed after it, even though the code digest is unchanged."""
        from repro.ioa import exploration_parallel as xp

        kwargs = dict(checkpoint_every=2, checkpoint_dir=str(tmp_path))
        explore_parallel(
            make_alternating_bit, ["m"], 2,
            max_configurations=10, **kwargs,
        )
        monkeypatch.setattr(
            xp, "KERNEL_VERSION", xp.KERNEL_VERSION + ".bumped"
        )
        resumed = explore_station_states_parallel(
            *make_alternating_bit(), ["m"], max_messages=2, **kwargs
        )
        assert resumed.perf["engine"]["resumed_from"] is None
        assert observables(resumed) == observables(
            explore_serial(make_alternating_bit, ["m"], 2)
        )

    def test_corrupt_checkpoint_degrades_to_fresh(self, tmp_path):
        sender, receiver = make_alternating_bit()
        key = checkpoint_key(sender, receiver, ["m"], 2)
        path = checkpoint_path(str(tmp_path), key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        result = explore_parallel(
            make_alternating_bit, ["m"], 2, checkpoint_dir=str(tmp_path),
        )
        assert result.perf["engine"]["resumed_from"] is None
        assert observables(result) == observables(
            explore_serial(make_alternating_bit, ["m"], 2)
        )


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
