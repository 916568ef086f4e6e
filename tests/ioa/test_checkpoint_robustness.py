"""Unit tests: torn/corrupt checkpoints and capacity-error partials.

Satellite guarantees of the checker PR:

* a truncated or corrupt checkpoint file is *detected* (length/digest
  container guard), logged, and treated as a cold start -- never an
  unpickling crash, never silently wrong state;
* :class:`~repro.ioa.exploration.ExplorationCapacityError` carries the
  partial result (levels completed, configurations seen) on both the
  serial and the sharded entries, and every single-shard entry --
  serial exploration, one in-process shard, the checker -- reports the
  same progress.
"""

import logging
import os

import pytest

from repro.datalink.sequence import make_sequence_protocol
from repro.ioa.exploration import (
    ExplorationCapacityError,
    explore_station_states,
)
from repro.ioa.exploration_parallel import (
    checkpoint_key,
    checkpoint_path,
    explore_station_states_parallel,
)


def observables(result):
    return (
        result.pair_count,
        result.configurations,
        result.truncated,
        result.sender_states,
        result.receiver_states,
    )


def run_checkpointed(ckpt_dir, **kwargs):
    sender, receiver = make_sequence_protocol()
    return explore_station_states_parallel(
        sender, receiver, ["m"], max_messages=2, workers=1,
        use_processes=False, checkpoint_every=1, checkpoint_dir=ckpt_dir,
        **kwargs,
    )


def checkpoint_file(ckpt_dir):
    sender, receiver = make_sequence_protocol()
    key = checkpoint_key(sender, receiver, ["m"], 2, 1, "in-process")
    return checkpoint_path(ckpt_dir, key)


class TestCorruptCheckpoints:
    def corrupt_and_rerun(self, tmp_path, caplog, corrupt):
        ckpt_dir = str(tmp_path / "ckpt")
        reference = run_checkpointed(ckpt_dir)
        path = checkpoint_file(ckpt_dir)
        assert os.path.exists(path)

        corrupt(path)
        with caplog.at_level(logging.WARNING,
                             logger="repro.ioa.exploration_parallel"):
            rerun = run_checkpointed(ckpt_dir)
        # Cold start, detected and logged -- and the exploration still
        # converges to exactly the uninterrupted observables.
        assert rerun.perf["engine"]["resumed_from"] is None
        assert observables(rerun) == observables(reference)
        return caplog.text

    def test_truncated_checkpoint_is_a_logged_cold_start(
        self, tmp_path, caplog
    ):
        def truncate(path):
            size = os.path.getsize(path)
            with open(path, "rb+") as handle:
                handle.truncate(size // 2)

        text = self.corrupt_and_rerun(tmp_path, caplog, truncate)
        assert "truncated" in text
        assert "cold start" in text

    def test_bitflipped_checkpoint_fails_its_digest(self, tmp_path, caplog):
        def bitflip(path):
            with open(path, "rb+") as handle:
                raw = bytearray(handle.read())
                raw[-1] ^= 0xFF  # corrupt the payload, not the header
                handle.seek(0)
                handle.write(raw)

        text = self.corrupt_and_rerun(tmp_path, caplog, bitflip)
        assert "digest" in text
        assert "cold start" in text

    def test_foreign_file_is_rejected(self, tmp_path, caplog):
        def overwrite(path):
            with open(path, "wb") as handle:
                handle.write(b"this is not a checkpoint container\n" * 40)

        text = self.corrupt_and_rerun(tmp_path, caplog, overwrite)
        assert "no container header" in text
        assert "cold start" in text

    def test_intact_checkpoint_still_resumes(self, tmp_path):
        # Guard the guard: the container round-trips when untouched.
        ckpt_dir = str(tmp_path / "ckpt")
        run_checkpointed(ckpt_dir)
        rerun = run_checkpointed(ckpt_dir)
        assert rerun.perf["engine"]["resumed_from"] is not None


class TestCapacityPartials:
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
                sender, receiver, ["m"], max_messages=3, workers=1,
                use_processes=False,
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
            lambda *args, **kwargs: explore_station_states_parallel(
                *args, workers=1, use_processes=False, **kwargs
            ),
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
