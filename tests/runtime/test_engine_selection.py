"""``--engine`` threads from the CLI through the runtime to shards.

The trial-engine selection is *execution configuration*: every tier is
bit-identical, so the choice is bound onto the task runner
(``functools.partial``) rather than carried in task specs, never
reaches cache keys, and surfaces only as observability -- a top-level
``engine`` field in the run manifest plus per-shard resolved-engine
metrics.  These tests pin the plumbing with fake shard modules so they
stay fast and engine-agnostic, then pin what ``auto`` resolves to and
that the retired ``vector`` tier is refused everywhere.
"""

import json

import pytest

from repro.core.theorem41 import plant_backlog
from repro.core.theorem51 import run_probabilistic_delivery
from repro.core.trials import TRIAL_ENGINES
from repro.datalink.sequence import make_sequence_protocol
from repro.experiments import exp_probabilistic
from repro.experiments import runner as runner_mod
from repro.experiments.base import (
    ExperimentResult,
    engine_metrics,
    resolve_trial_engine,
)
from repro.ioa.sinks import MetricsSink
from repro.runtime.engine import run_experiments
from repro.runtime.manifest import build_manifest
from repro.runtime.worker import execute

CALLS = {}


class _AwareModule:
    """A minimal ENGINE_AWARE sharded experiment."""

    ENGINE_AWARE = True

    @staticmethod
    def shards(fast):
        return [{"shard": "s0"}]

    @staticmethod
    def run_shard(params, fast, seed, engine="auto"):
        CALLS["aware_engine"] = engine
        return {"metrics": {"engine": engine}}

    @staticmethod
    def merge(payloads, fast, seed):
        result = ExperimentResult(exp_id="EX", title="fake")
        result.metrics["engine"] = payloads[0]["metrics"]["engine"]
        return result


class _ObliviousModule:
    """A sharded experiment without the ENGINE_AWARE marker."""

    @staticmethod
    def shards(fast):
        return [{"shard": "s0"}]

    @staticmethod
    def run_shard(params, fast, seed):
        CALLS["oblivious_ran"] = True
        return {"metrics": {}}

    @staticmethod
    def merge(payloads, fast, seed):
        return ExperimentResult(exp_id="EY", title="fake")


@pytest.fixture
def fake_experiments(monkeypatch):
    CALLS.clear()
    monkeypatch.setitem(runner_mod.REGISTRY, "fake_aware", lambda **kw: None)
    monkeypatch.setitem(runner_mod.SHARDED, "fake_aware", _AwareModule)
    monkeypatch.setitem(runner_mod.REGISTRY, "fake_obliv", lambda **kw: None)
    monkeypatch.setitem(runner_mod.SHARDED, "fake_obliv", _ObliviousModule)
    return CALLS


def spec_dict(experiment):
    return {
        "experiment": experiment,
        "shard": "s0",
        "kind": "shard",
        "fast": True,
        "seed": 0,
        "params": {"shard": "s0"},
    }


def test_worker_passes_engine_to_engine_aware_modules(fake_experiments):
    execute(spec_dict("fake_aware"), engine="batch")
    assert fake_experiments["aware_engine"] == "batch"


def test_worker_default_leaves_run_shard_signature_alone(fake_experiments):
    """engine=None (the unbound default) calls run_shard without the
    kwarg, so non-aware modules never see an unexpected argument."""
    execute(spec_dict("fake_aware"), engine=None)
    assert fake_experiments["aware_engine"] == "auto"
    execute(spec_dict("fake_obliv"), engine="interpreted")
    assert fake_experiments["oblivious_ran"] is True


def test_run_experiments_rejects_unknown_engine():
    with pytest.raises(ValueError, match="engine must be"):
        run_experiments(["hoeffding"], fast=True, engine="warp")


def test_engine_reaches_shards_and_manifest(fake_experiments):
    report = run_experiments(
        ["fake_aware"], fast=True, cache=None, engine="batch"
    )
    assert report.manifest["engine"] == "batch"
    assert report.results["fake_aware"].metrics["engine"] == "batch"
    assert report.manifest["tasks"][0]["metrics"]["engine"] == "batch"


def test_engine_defaults_to_auto(fake_experiments):
    report = run_experiments(["fake_aware"], fast=True, cache=None)
    assert report.manifest["engine"] == "auto"
    assert report.results["fake_aware"].metrics["engine"] == "auto"


def test_manifest_records_engine():
    manifest = build_manifest(
        [],
        names=["x"],
        fast=True,
        seed=0,
        workers=1,
        code_version="0" * 64,
        engine="interpreted",
    )
    assert manifest["engine"] == "interpreted"


def test_cli_engine_flag_threads_to_the_manifest(
    fake_experiments, tmp_path, capsys
):
    out = tmp_path / "run.json"
    code = runner_mod.main(
        [
            "fake_aware",
            "--fast",
            "--engine",
            "batch",
            "--no-cache",
            "--quiet",
            "--json",
            str(out),
        ]
    )
    assert code == 0
    document = json.loads(out.read_text(encoding="utf-8"))
    assert document["manifest"]["engine"] == "batch"
    assert document["manifest"]["tasks"][0]["metrics"]["engine"] == "batch"


def test_cli_rejects_unknown_engine(fake_experiments, capsys):
    with pytest.raises(SystemExit):
        runner_mod.main(["fake_aware", "--fast", "--engine", "warp"])


# ---------------------------------------------------------------------------
# what auto resolves to, and why
# ---------------------------------------------------------------------------


def test_auto_resolves_to_the_batch_tier():
    assert TRIAL_ENGINES == ("auto", "batch", "interpreted")
    assert resolve_trial_engine("auto") == ("batch", None)
    assert resolve_trial_engine(None) == ("batch", None)
    assert resolve_trial_engine("auto", pumping=True) == ("batch", None)
    fresh = MetricsSink(count_steps=False)
    assert resolve_trial_engine("auto", sinks=[fresh]) == ("batch", None)
    for explicit in ("batch", "interpreted"):
        assert resolve_trial_engine(explicit) == (explicit, None)


def test_auto_fallback_records_the_gate_refusal():
    used = MetricsSink(count_steps=False)
    used.sent_t2r = 3  # a pre-used observer needs the event interleaving
    tier, refusal = resolve_trial_engine("auto", sinks=[used])
    assert tier == "interpreted"
    assert "already holds counts" in refusal
    assert engine_metrics({"run": (tier, refusal)}) == {
        "engine": "interpreted",
        "engine_refusal": refusal,
    }
    assert engine_metrics(
        {"flood": ("batch", None), "naive": (tier, refusal)}
    ) == {
        "engine": "flood=batch,naive=interpreted",
        "engine_refusal": f"naive={refusal}",
    }


def test_probabilistic_shard_records_the_tier_that_ran():
    params = {"shard": "q=0.4", "q": 0.4}
    auto = exp_probabilistic.run_shard(params, True, 1)
    assert auto["metrics"]["engine"] == "flood=batch,naive=batch"
    assert "engine_refusal" not in auto["metrics"]
    forced = exp_probabilistic.run_shard(params, True, 1, engine="interpreted")
    assert forced["metrics"]["engine"] == "flood=interpreted,naive=interpreted"
    assert forced["flood"] == auto["flood"]
    assert forced["naive"] == auto["naive"]


# ---------------------------------------------------------------------------
# the vector tier is gone from every entry point
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv,message",
    [
        (["all", "--fast", "--engine", "vector"], "invalid choice: 'vector'"),
        (["campaign", "examples/campaign_smoke.json", "--engine", "vector"],
         "invalid choice: 'vector'"),
        # check has no --engine option at all: the BFS has one tier.
        (["check", "--property", "type-ok", "--engine", "vector"],
         "unrecognized arguments: --engine vector"),
    ],
    ids=["all", "campaign", "check"],
)
def test_cli_refuses_the_vector_engine(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        runner_mod.main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def test_library_entry_points_refuse_the_vector_engine():
    from repro.checker import check_protocol

    with pytest.raises(ValueError, match="engine must be"):
        plant_backlog(make_sequence_protocol, 4, engine="vector")
    with pytest.raises(ValueError, match="engine must be"):
        run_probabilistic_delivery(
            make_sequence_protocol, q=0.2, n=1, engine="vector"
        )
    sender, receiver = make_sequence_protocol()
    # The BFS has one tier, so check_protocol takes no engine keyword.
    with pytest.raises(TypeError, match="engine"):
        check_protocol(sender, receiver, ["m"], "type-ok", engine="vector")
