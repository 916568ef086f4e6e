"""Which trial tier runs, and who decides it.

The tier is picked inside the runs themselves: each shard or cell
asks the batch gate (:func:`~repro.experiments.base.resolve_trial_engine`)
and records the tier that ran, plus the gate's refusal when it fell
back, in its metrics.  Nothing above :mod:`repro.core` takes an
engine choice: there is no ``--engine`` flag, no ``engine`` argument
on the runtime or campaign entry points and no run-level manifest
field.  The retired ``vector`` tier is refused everywhere.
"""

import inspect

import pytest

from repro.campaign.cells import run_cell
from repro.campaign.engine import run_campaign
from repro.core import trials
from repro.core.theorem41 import plant_backlog
from repro.core.theorem51 import run_probabilistic_delivery
from repro.core.trials import TRIAL_ENGINES
from repro.datalink.sequence import make_sequence_protocol
from repro.experiments import exp_backlog, exp_probabilistic
from repro.experiments import runner as runner_mod
from repro.experiments.base import engine_metrics, resolve_trial_engine
from repro.ioa.sinks import MetricsSink
from repro.runtime.engine import run_experiments
from repro.runtime.manifest import build_manifest
from repro.runtime.worker import execute


def test_worker_default_leaves_run_shard_signature_alone(monkeypatch):
    """The worker calls every sharded module's three-parameter hook."""
    calls = []

    class ThreeParameterModule:
        @staticmethod
        def run_shard(params, fast, seed):
            calls.append((params["shard"], fast, seed))
            return {"metrics": {}}

    monkeypatch.setitem(runner_mod.SHARDED, "fake", ThreeParameterModule)
    result = execute({
        "experiment": "fake", "shard": "s0", "kind": "shard",
        "fast": True, "seed": 7, "params": {"shard": "s0"},
    })
    assert result["payload"] == {"metrics": {}}
    assert calls == [("s0", True, 7)]


def test_run_experiments_rejects_unknown_engine():
    with pytest.raises(TypeError, match="engine"):
        run_experiments(["hoeffding"], fast=True, engine="warp")


@pytest.mark.parametrize(
    "entry_point",
    [
        run_campaign,
        execute,
        run_cell,
        exp_backlog.run_shard,
        exp_probabilistic.run_shard,
        build_manifest,
    ],
    ids=lambda f: f"{f.__module__}.{f.__qualname__}",
)
def test_no_engine_argument_above_core(entry_point):
    assert "engine" not in inspect.signature(entry_point).parameters


# ---------------------------------------------------------------------------
# what auto resolves to, and why
# ---------------------------------------------------------------------------


def test_auto_resolves_to_the_batch_tier():
    assert TRIAL_ENGINES == ("auto", "batch", "interpreted")
    assert resolve_trial_engine() == ("batch", None)
    assert resolve_trial_engine(pumping=True) == ("batch", None)
    fresh = MetricsSink(count_steps=False)
    assert resolve_trial_engine(sinks=[fresh]) == ("batch", None)


def test_auto_fallback_records_the_gate_refusal():
    used = MetricsSink(count_steps=False)
    used.sent_t2r = 3  # a pre-used observer needs the event interleaving
    tier, refusal = resolve_trial_engine(sinks=[used])
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


REFUSAL = "refused for the test"


def test_probabilistic_shard_records_the_tier_that_ran(monkeypatch):
    params = {"shard": "q=0.4", "q": 0.4}
    auto = exp_probabilistic.run_shard(params, True, 1)
    assert auto["metrics"]["engine"] == "flood=batch,naive=batch"
    assert "engine_refusal" not in auto["metrics"]
    monkeypatch.setattr(
        trials, "probabilistic_batch_refusal", lambda *args: REFUSAL
    )
    forced = exp_probabilistic.run_shard(params, True, 1)
    assert forced["metrics"]["engine"] == "flood=interpreted,naive=interpreted"
    assert forced["metrics"]["engine_refusal"] == (
        f"flood={REFUSAL},naive={REFUSAL}"
    )
    assert forced["flood"] == auto["flood"]
    assert forced["naive"] == auto["naive"]
    # Both tiers check (DL1) on both runs, and both protocols keep it.
    assert auto["metrics"]["dl1_violations"] == 0
    assert forced["metrics"]["dl1_violations"] == 0


@pytest.mark.parametrize("shard", exp_backlog.shards(True),
                         ids=lambda params: params["shard"])
def test_backlog_shard_records_the_tier_that_ran(shard, monkeypatch):
    auto = exp_backlog.run_shard(shard, True, 0)
    assert auto["metrics"]["engine"] == "batch"
    assert "engine_refusal" not in auto["metrics"]
    monkeypatch.setattr(trials, "pump_batch_refusal", lambda *args: REFUSAL)
    forced = exp_backlog.run_shard(shard, True, 0)
    assert forced["metrics"]["engine"] == "interpreted"
    assert forced["metrics"]["engine_refusal"] == REFUSAL
    assert {k: v for k, v in forced.items() if k != "metrics"} == {
        k: v for k, v in auto.items() if k != "metrics"
    }


# ---------------------------------------------------------------------------
# the vector tier is gone from every entry point
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["all", "--fast"],
        ["campaign", "examples/campaign_smoke.json"],
        ["check", "--property", "type-ok"],
    ],
    ids=["all", "campaign", "check"],
)
def test_cli_refuses_the_vector_engine(argv, capsys):
    """No subcommand has an ``--engine`` option, for any tier."""
    for tier in ("vector", "batch"):
        with pytest.raises(SystemExit) as exit_info:
            runner_mod.main([*argv, "--engine", tier])
        assert exit_info.value.code == 2
        assert (
            f"unrecognized arguments: --engine {tier}"
            in capsys.readouterr().err
        )


def test_cli_rejects_unknown_engine(capsys):
    with pytest.raises(SystemExit) as exit_info:
        runner_mod.main(["hoeffding", "--fast", "--engine", "warp"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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
