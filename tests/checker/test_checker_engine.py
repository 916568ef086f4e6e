"""Unit tests: ``check_protocol`` verdicts, budgets and options.

Determinism across backends/shards/stores/resume has its own module
(``test_checker_determinism``); here each engine feature is exercised
once on the cheapest system that demonstrates it.
"""

import pytest

from repro.checker import CheckResult, check_protocol, make_property
from repro.datalink.alternating_bit import make_alternating_bit
from repro.datalink.broken import EagerReceiver
from repro.datalink.sequence import SequenceSender, make_sequence_protocol
from repro.ioa.exploration import ExplorationCapacityError


def eager_pair():
    return SequenceSender(), EagerReceiver()


class TestVerdicts:
    def test_dl1_forgery_holds_on_sequence(self):
        sender, receiver = make_sequence_protocol()
        result = check_protocol(sender, receiver, ["m"], "dl1-forgery",
                                max_messages=2)
        assert result.holds
        assert result.decided
        assert not result.violated
        assert result.counterexample is None
        assert result.stats["complete"] is True

    def test_dl1_forgery_violated_on_eager_receiver(self):
        sender, receiver = eager_pair()
        result = check_protocol(sender, receiver, ["m"], "dl1-forgery",
                                max_messages=2)
        assert result.violated
        assert result.property_kind == "reachability"
        cex = result.counterexample
        assert cex is not None
        # Theorem 3.1 in miniature: one injection, one transmission,
        # and a duplicated delivery of the same DATA packet.
        kinds = [s.label[0] for s in cex.steps if s.label is not None]
        assert kinds.count("deliver") > kinds.count("inject")
        # The final configuration records the forgery.
        *_, injected, delivered = cex.steps[-1].portable
        assert delivered > injected

    def test_replay_is_concrete_and_spec_checked(self):
        sender, receiver = eager_pair()
        result = check_protocol(sender, receiver, ["m"], "dl1-forgery")
        cex = result.counterexample
        assert cex.concrete
        assert cex.execution is not None
        report = cex.spec_report
        assert report is not None
        assert not report.ok
        assert any(v.property_name.startswith("DL1")
                   for v in report.violations)

    def test_budget_exhausted(self):
        sender, receiver = make_sequence_protocol()
        result = check_protocol(sender, receiver, ["m"], "dl1-forgery",
                                max_messages=3, max_configurations=5)
        assert result.verdict == "budget-exhausted"
        assert not result.decided
        assert result.counterexample is None
        assert result.stats["truncated"] is True

    def test_string_and_instance_props_agree(self):
        sender, receiver = eager_pair()
        by_name = check_protocol(sender, receiver, ["m"], "dl1-forgery")
        sender, receiver = eager_pair()
        by_instance = check_protocol(
            sender, receiver, ["m"], make_property("dl1-forgery")
        )
        assert by_name.verdict == by_instance.verdict
        assert (by_name.counterexample.fingerprint()
                == by_instance.counterexample.fingerprint())

    def test_callers_stations_are_not_mutated(self):
        sender, receiver = eager_pair()
        before = (sender.protocol_state(), receiver.protocol_state())
        check_protocol(sender, receiver, ["m"], "dl1-forgery")
        assert (sender.protocol_state(), receiver.protocol_state()) == before


class TestTraceModes:
    @pytest.mark.parametrize("trace", ["auto", "inline"])
    def test_trace_modes_agree(self, trace):
        sender, receiver = eager_pair()
        result = check_protocol(sender, receiver, ["m"], "dl1-forgery",
                                trace=trace)
        assert result.violated
        assert result.counterexample is not None
        # Both reconstruct the same canonical path.
        assert result.counterexample.fingerprint() == check_protocol(
            *eager_pair(), ["m"], "dl1-forgery", trace="auto"
        ).counterexample.fingerprint()

    def test_trace_off(self):
        sender, receiver = eager_pair()
        result = check_protocol(sender, receiver, ["m"], "dl1-forgery",
                                trace="off")
        assert result.violated
        assert result.counterexample is None
        assert result.stats["hits"] >= 1

    def test_replay_off(self):
        sender, receiver = eager_pair()
        result = check_protocol(sender, receiver, ["m"], "dl1-forgery",
                                replay=False)
        cex = result.counterexample
        assert cex is not None
        assert cex.execution is None
        assert cex.spec_report is None
        assert cex.concrete is False


class TestCapacityBound:
    def test_capacity_prunes_unbounded_headers(self):
        # The sequence protocol's value sets grow without bound; a
        # capacity bound keeps the search finite and counts the prunes.
        sender, receiver = make_sequence_protocol()
        result = check_protocol(sender, receiver, ["m"], "type-ok",
                                max_messages=3, capacity=2)
        assert result.holds
        assert result.stats["pruned"] > 0

    def test_capacity_error_reports_partial_progress(self, monkeypatch):
        import repro.ioa.exploration as exploration

        monkeypatch.setattr(exploration, "_FIELD_MASK", 3)
        sender, receiver = make_sequence_protocol()
        result = check_protocol(sender, receiver, ["m"], "type-ok",
                                max_messages=3)
        assert result.verdict == "budget-exhausted"
        assert "intern table" in result.stats["capacity_error"] \
            or "capacity" in result.stats["capacity_error"]
        assert result.stats["configurations"] >= 1


class TestCheckResult:
    def test_to_dict_is_json_serialisable(self):
        import json

        sender, receiver = eager_pair()
        result = check_protocol(sender, receiver, ["m"], "dl1-forgery")
        blob = json.dumps(result.to_dict())
        document = json.loads(blob)
        assert document["verdict"] == "violated"
        assert document["counterexample"]["concrete"] is True
        assert document["counterexample"]["spec"]["ok"] is False

    def test_holds_result_shape(self):
        sender, receiver = make_sequence_protocol()
        result = check_protocol(sender, receiver, ["m"], "dl1-forgery")
        assert isinstance(result, CheckResult)
        document = result.to_dict()
        assert document["counterexample"] is None
        assert document["stats"]["levels"] > 0


class TestCheckpointResume:
    def test_resume_continues_to_same_verdict(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")

        # Interrupted run: budget too small to finish, checkpointing on.
        sender, receiver = make_sequence_protocol()
        partial = check_protocol(
            sender, receiver, ["m"], "dl1-forgery", max_messages=2,
            max_configurations=4, checkpoint_every=1, checkpoint_dir=ckpt,
        )
        assert partial.verdict == "budget-exhausted"

        # Resumed run with a real budget finishes from the checkpoint.
        sender, receiver = make_sequence_protocol()
        resumed = check_protocol(
            sender, receiver, ["m"], "dl1-forgery", max_messages=2,
            checkpoint_every=1, checkpoint_dir=ckpt,
        )
        assert resumed.holds
        assert resumed.stats["engine"]["resumed_from"] is not None

        # An uninterrupted reference run agrees on everything.
        sender, receiver = make_sequence_protocol()
        reference = check_protocol(sender, receiver, ["m"], "dl1-forgery",
                                   max_messages=2)
        assert resumed.verdict == reference.verdict
        assert resumed.stats["configurations"] \
            == reference.stats["configurations"]

    def test_checkpoint_key_separates_properties(self, tmp_path):
        from repro.ioa.exploration_parallel import checkpoint_key

        sender, receiver = make_sequence_protocol()
        kwargs = dict(
            alphabet=["m"], max_messages=2, num_shards=1,
            backend="in-process", track_parents=False, del_cap=0,
            capacity=None, store="memory",
        )
        one = checkpoint_key(
            sender, receiver, prop_spec="type-ok", **kwargs
        )
        two = checkpoint_key(
            sender, receiver, prop_spec="header-bound=2", **kwargs
        )
        assert one != two
