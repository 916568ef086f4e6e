"""Integration: the experiment harness reproduces every paper shape.

These run the fast variants of E1..E6 end to end and assert every
shape check passes -- the machine-checkable statement that the
reproduction matches the paper's qualitative claims.
"""

import json

import pytest

from repro.experiments.runner import REGISTRY, main, run_all, run_experiment


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_experiment_passes(name):
    result = run_experiment(name, fast=True, seed=0)
    failed = [check for check, ok in result.checks.items() if not ok]
    assert result.passed, f"{name} failed checks: {failed}"


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_experiment_renders(name):
    result = run_experiment(name, fast=True, seed=0)
    text = result.render()
    assert result.exp_id in text
    assert "overall: PASS" in text


def test_runner_unknown_experiment_rejected():
    with pytest.raises(KeyError):
        run_experiment("nonsense")


def test_runner_unknown_name_error_lists_choices_and_all():
    with pytest.raises(KeyError) as excinfo:
        run_experiment("nonsense")
    message = str(excinfo.value)
    assert "boundness" in message
    assert "all" in message


def test_runner_all_gets_a_dedicated_error():
    with pytest.raises(ValueError, match="run_all"):
        run_experiment("all")


@pytest.mark.parametrize("fast", ["yes", 1, None])
def test_runner_rejects_non_bool_fast(fast):
    with pytest.raises(TypeError, match="fast"):
        run_experiment("hoeffding", fast=fast)


@pytest.mark.parametrize("seed", ["0", 1.5, None, True])
def test_runner_rejects_non_int_seed(seed):
    with pytest.raises(TypeError, match="seed"):
        run_experiment("hoeffding", seed=seed)


def test_run_all_validates_kwargs_before_running():
    with pytest.raises(TypeError):
        run_all(fast="definitely")
    with pytest.raises(TypeError):
        run_all(seed="zero")


def test_cli_single_experiment(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    exit_code = main(["hoeffding", "--fast"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "E5" in captured.out


def test_cli_no_cache_and_quiet(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    exit_code = main(["hoeffding", "--fast", "--no-cache", "--quiet"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "E5" in captured.out
    assert captured.err == ""  # --quiet silences the progress report
    assert not (tmp_path / "cache").exists()  # --no-cache wrote nothing


def test_cli_json_flag_writes_results_and_manifest(capsys, tmp_path,
                                                   monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    target = tmp_path / "run.json"
    exit_code = main(["hoeffding", "--fast", "--json", str(target)])
    assert exit_code == 0
    document = json.loads(target.read_text(encoding="utf-8"))
    assert document["passed"] is True
    assert document["experiments"][0]["exp_id"] == "E5"
    manifest = document["manifest"]
    assert manifest["schema"] == "repro.runtime/2"
    assert "engine" not in manifest
    assert [task["experiment"] for task in manifest["tasks"]] == (
        ["hoeffding"] * len(manifest["tasks"])
    )
    captured = capsys.readouterr()
    assert "run manifest written" in captured.out


def test_cli_parallel_rejects_bad_worker_count():
    with pytest.raises(SystemExit):
        main(["hoeffding", "--fast", "--parallel", "0"])


def test_cli_rejects_unknown_name(capsys):
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_experiments_are_seed_deterministic():
    first = run_experiment("headers", fast=True, seed=0)
    second = run_experiment("headers", fast=True, seed=0)
    assert [t.render() for t in first.tables] == [
        t.render() for t in second.tables
    ]


def test_exploration_worker_variable_cannot_change_tables(monkeypatch):
    """The result cache keys on experiment, parameters, seed and code,
    not on the environment, so nothing in it may steer an exploration.
    E2's capacity-flood growth rows are cut by the visit budget; a
    level-barrier cut would print 20002 and 20005 configurations where
    the serial entry's exact cut prints 20000."""
    monkeypatch.delenv("REPRO_EXPLORE_WORKERS", raising=False)
    plain = run_experiment("headers", fast=True, seed=3)
    monkeypatch.setenv("REPRO_EXPLORE_WORKERS", "2")
    steered = run_experiment("headers", fast=True, seed=3)
    assert [t.to_dict() for t in steered.tables] == [
        t.to_dict() for t in plain.tables
    ]


@pytest.mark.parametrize("fast, rows", [(True, 3), (False, 4)])
def test_e1_samples_boundness_once_per_row(monkeypatch, fast, rows):
    from repro.core import boundness
    from repro.experiments import exp_boundness

    calls = []
    measure = boundness.measure_boundness

    def counting(*args, **kwargs):
        calls.append(args)
        return measure(*args, **kwargs)

    # Patch every binding of the name the experiment could call.
    monkeypatch.setattr(boundness, "measure_boundness", counting)
    monkeypatch.setattr(exp_boundness, "measure_boundness", counting,
                        raising=False)
    # Sampling is what is counted; keep the full-mode search small.
    monkeypatch.setattr(exp_boundness, "SLOW_BUDGET",
                        exp_boundness.FAST_BUDGET)
    result = exp_boundness.run(fast=fast, seed=0)
    assert len(result.tables[0].rows) == rows
    assert len(calls) == rows
