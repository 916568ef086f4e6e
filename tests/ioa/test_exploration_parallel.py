"""Unit tests: sharded parallel exploration and checkpoint/resume.

The engine's contract (see :mod:`repro.ioa.exploration_parallel`):

* for explorations that complete within the visit budget, every
  observable matches the serial kernel exactly, at any worker count
  and on either backend;
* truncated explorations are deterministic and identical across the
  in-process and process backends and across shard counts (levels are
  canonical), though they may cover a slightly different region than
  the serial kernel's exact-FIFO cut;
* a checkpointed run resumed after an interruption finishes with
  exactly the observables of an uninterrupted run;
* checkpoints are salted with ``KERNEL_VERSION`` and ignore stale
  generations.
"""

import functools
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
        parallel = explore_parallel(
            factory, alphabet, max_messages,
            workers=4, use_processes=False,
        )
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
        parallel = explore_parallel(
            factory, ["a", "b"], 2, workers=3, use_processes=False,
        )
        assert observables(parallel) == observables(serial)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_process_shards_match_serial(self, workers):
        serial = explore_serial(make_alternating_bit, ["m"], 3)
        parallel = explore_parallel(
            make_alternating_bit, ["m"], 3,
            workers=workers, use_processes=True,
        )
        assert parallel.perf["engine"]["backend"] == "process"
        assert parallel.perf["engine"]["shards"] == workers
        assert observables(parallel) == observables(serial)

    def test_truncated_runs_identical_across_backends(self):
        runs = [
            explore_parallel(
                lambda: make_capacity_flooding(2, 1), ["m"], 2,
                max_configurations=300, **kwargs,
            )
            for kwargs in (
                {"workers": 1, "use_processes": False},
                {"workers": 4, "use_processes": False},
                {"workers": 2, "use_processes": True},
                {"workers": 3, "use_processes": True},
            )
        ]
        assert all(run.truncated for run in runs)
        reference = observables(runs[0])
        for run in runs[1:]:
            assert observables(run) == reference

    def test_parallel_switch_dispatches(self):
        sender, receiver = make_alternating_bit()
        routed = explore_station_states(
            sender, receiver, ["m"], max_messages=3, parallel=2
        )
        assert routed.perf["engine"]["workers_requested"] == 2
        serial = explore_serial(make_alternating_bit, ["m"], 3)
        assert serial.perf["engine"]["workers_requested"] == 1
        assert observables(routed) == observables(serial)

    def test_theorem21_verdict_matches_serial(self):
        from repro.core.boundness import verify_theorem21

        kwargs = dict(
            boundness_kwargs={
                "prefix_lengths": (0, 1),
                "seeds": (0, 1),
                "max_steps": 2_000,
            },
            exploration_kwargs={"max_messages": 3},
        )
        serial = verify_theorem21(make_alternating_bit, **kwargs)
        parallel = verify_theorem21(
            make_alternating_bit, parallel=2, **kwargs
        )
        assert parallel.holds == serial.holds
        assert parallel.boundness == serial.boundness
        assert parallel.state_product == serial.state_product


class TestTruncationSemantics:
    """The serial entry cuts in BFS-FIFO order at exactly the budget;
    every sharded path cuts at the level barrier past it."""

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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 1, "use_processes": False},
            {"workers": 2, "use_processes": True},
        ],
        ids=["in-process", "process"],
    )
    def test_sharded_cut_is_at_the_level_barrier(self, kwargs):
        explore = functools.partial(explore_station_states_parallel, **kwargs)
        assert self.cut(explore) == (1025, True, 22, 66, 353)

    def test_parallel_switch_cuts_at_the_level_barrier(self):
        explore = functools.partial(explore_station_states, parallel=2)
        assert self.cut(explore) == (1025, True, 22, 66, 353)


class TestBackendSelection:
    def test_unpicklable_degrades_to_in_process(self):
        sender, receiver = make_alternating_bit()
        sender.unpicklable = lambda: None
        result = explore_station_states_parallel(
            sender, receiver, ["m"], max_messages=3, workers=4
        )
        engine = result.perf["engine"]
        assert engine["backend"] == "in-process"
        if (os.cpu_count() or 1) >= 2:
            # On a multi-CPU host only the failed probe forced the
            # degrade; single-CPU hosts skip the probe entirely.
            assert not engine["picklable"]
        clean = explore_serial(make_alternating_bit, ["m"], 3)
        assert observables(result) == observables(clean)

    def test_unpicklable_with_forced_processes_raises(self):
        sender, receiver = make_alternating_bit()
        sender.unpicklable = lambda: None
        with pytest.raises(ValueError, match="picklable"):
            explore_station_states_parallel(
                sender, receiver, ["m"], max_messages=3,
                workers=2, use_processes=True,
            )

    def test_engine_metadata_recorded(self):
        result = explore_parallel(
            make_alternating_bit, ["m"], 3,
            workers=4, use_processes=False,
        )
        engine = result.perf["engine"]
        assert engine["name"] == "level-sync-sharded"
        assert engine["workers_requested"] == 4
        assert engine["shards"] == 1
        assert engine["levels"] > 0
        assert engine["resumed_from"] is None


class TestCheckpointResume:
    def run_pair(self, tmp_path, use_processes, workers):
        kwargs = dict(
            workers=workers,
            use_processes=use_processes,
            checkpoint_every=2,
            checkpoint_dir=str(tmp_path),
        )
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
        interrupted, resumed = self.run_pair(
            tmp_path, use_processes=False, workers=1
        )
        engine = resumed.perf["engine"]
        assert engine["resumed_from"] is not None
        assert engine["resumed_from"]["visited"] == (
            interrupted.configurations
        )
        fresh = explore_serial(make_alternating_bit, ["m"], 2)
        assert observables(resumed) == observables(fresh)

    def test_interrupt_resume_matches_fresh_processes(self, tmp_path):
        interrupted, resumed = self.run_pair(
            tmp_path, use_processes=True, workers=2
        )
        assert resumed.perf["engine"]["resumed_from"] is not None
        fresh = explore_parallel(
            make_alternating_bit, ["m"], 2,
            workers=2, use_processes=True,
        )
        assert observables(resumed) == observables(fresh)

    def test_checkpoint_file_written_under_dir(self, tmp_path):
        explore_parallel(
            make_alternating_bit, ["m"], 2,
            workers=1, use_processes=False,
            checkpoint_dir=str(tmp_path),
        )
        names = os.listdir(tmp_path)
        assert len(names) == 1
        assert names[0].endswith(".ckpt")

    def test_resume_false_ignores_checkpoint(self, tmp_path):
        self.run_pair(tmp_path, use_processes=False, workers=1)
        fresh = explore_parallel(
            make_alternating_bit, ["m"], 2,
            max_configurations=10,
            workers=1, use_processes=False,
            checkpoint_dir=str(tmp_path), resume=False,
        )
        assert fresh.perf["engine"]["resumed_from"] is None
        assert fresh.truncated
        # Starting over, the budget allows at most one extra level past
        # the cap -- nowhere near the finished search a resume reaches.
        assert fresh.configurations >= 10

    def test_completed_checkpoint_resumes_to_same_result(self, tmp_path):
        first = explore_parallel(
            make_alternating_bit, ["m"], 2,
            workers=1, use_processes=False,
            checkpoint_dir=str(tmp_path),
        )
        assert not first.truncated
        again = explore_parallel(
            make_alternating_bit, ["m"], 2,
            workers=1, use_processes=False,
            checkpoint_dir=str(tmp_path),
        )
        assert again.perf["engine"]["resumed_from"] is not None
        assert again.perf["engine"]["session_configurations"] == 0
        assert observables(again) == observables(first)


class TestCheckpointHygiene:
    """Checkpoints are salted exactly like cached results."""

    def test_key_distinguishes_identity(self):
        sender, receiver = make_alternating_bit()
        base = checkpoint_key(sender, receiver, ["m"], 2, 1, "in-process")
        assert checkpoint_key(
            sender, receiver, ["m"], 3, 1, "in-process"
        ) != base
        assert checkpoint_key(
            sender, receiver, ["m", "n"], 2, 1, "in-process"
        ) != base
        assert checkpoint_key(
            sender, receiver, ["m"], 2, 2, "process"
        ) != base
        other_s, other_r = make_sequence_protocol()
        assert checkpoint_key(
            other_s, other_r, ["m"], 2, 1, "in-process"
        ) != base
        assert checkpoint_key(
            sender, receiver, ["m"], 2, 1, "in-process"
        ) == base

    def test_kernel_version_bump_invalidates(self, tmp_path, monkeypatch):
        """A checkpoint written before a KERNEL_VERSION bump must not
        be resumed after it, even though the code digest is unchanged."""
        from repro.ioa import exploration_parallel as xp

        kwargs = dict(
            workers=1, use_processes=False,
            checkpoint_every=2, checkpoint_dir=str(tmp_path),
        )
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
        key = checkpoint_key(
            sender, receiver, ["m"], 2, 1, "in-process"
        )
        path = checkpoint_path(str(tmp_path), key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        result = explore_parallel(
            make_alternating_bit, ["m"], 2,
            workers=1, use_processes=False,
            checkpoint_dir=str(tmp_path),
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
        parallel = explore_parallel(
            make_alternating_bit, ["m"], 3,
            workers=1, use_processes=False,
        )
        rate = parallel.perf["configs_per_sec"]
        assert rate is None or rate > 0

    def test_packet_values_match_direction_enum(self):
        serial = explore_serial(make_alternating_bit, ["m"], 3)
        assert set(serial.packet_values) == {
            Direction.T2R, Direction.R2T,
        }
