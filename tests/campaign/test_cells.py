"""Worker-side execution of declarative campaign cells."""

import pytest

from repro.campaign.cells import run_cell
from repro.core import trials
from repro.campaign.compiler import compile_campaign
from repro.campaign.spec import CampaignSpec, CellGroup


def compiled_cell(group, fast=True, seed=0):
    spec = CampaignSpec(name="one", groups=[group])
    (task,) = compile_campaign(spec, fast=fast, seed=seed)
    return task


def test_delivery_cell_deterministic():
    task = compiled_cell(
        CellGroup(
            cell="delivery",
            protocol="sequence",
            template="q={q}",
            grid={"q": [0.2]},
            params={"n": 6},
            metrics=["delivered", "packets", "completed"],
        )
    )
    first = run_cell(task.params, True, task.seed)
    again = run_cell(task.params, True, task.seed)
    assert first == again
    assert first["values"]["delivered"] == 6
    assert first["values"]["completed"] is True
    assert first["metrics"]["engine"] == "batch"
    assert "engine_refusal" not in first["metrics"]


REFUSAL = "refused for the test"


def test_delivery_cell_engine_tiers_identical(monkeypatch):
    """With the batch gate refusing, the cell runs the interpreted
    reference, records the refusal, and reports the same values."""
    task = compiled_cell(
        CellGroup(
            cell="delivery",
            protocol="sequence",
            template="q={q}",
            grid={"q": [0.3]},
            params={"n": 5},
            metrics=["delivered", "packets"],
        )
    )
    payload = run_cell(task.params, True, task.seed)
    assert payload["metrics"]["engine"] == "batch"
    monkeypatch.setattr(
        trials, "probabilistic_batch_refusal", lambda *args: REFUSAL
    )
    reference = run_cell(task.params, True, task.seed)
    assert reference["metrics"]["engine"] == "interpreted"
    assert reference["metrics"]["engine_refusal"] == REFUSAL
    assert payload["values"] == reference["values"]


def test_delivery_cell_rejects_negative_message_count():
    task = compiled_cell(
        CellGroup(
            cell="delivery",
            protocol="sequence",
            template="q={q}",
            grid={"q": [0.2]},
            params={"n": -2},
            metrics=["delivered", "completed"],
        )
    )
    with pytest.raises(ValueError, match="n must be non-negative"):
        run_cell(task.params, True, task.seed)


def test_adversary_cell_with_seeded_adversary():
    group = CellGroup(
        cell="adversary",
        protocol="sequence",
        channel="nonfifo",
        adversary="fair",
        template="fair-d={adversary.max_delay}",
        grid={"adversary.max_delay": [2]},
        params={"n": 4, "max_steps": 5000},
        metrics=["delivered", "submitted", "packets_t2r", "completed"],
    )
    task = compiled_cell(group)
    first = run_cell(task.params, True, task.seed)
    again = run_cell(task.params, True, task.seed)
    assert first == again
    assert first["values"]["delivered"] == 4
    assert first["values"]["completed"] is True


def test_exploration_cell_reports_state_counts():
    task = compiled_cell(
        CellGroup(
            cell="exploration",
            protocol="alternating-bit",
            template="abp",
            params={"max_messages": 2},
            metrics=["k_t", "k_r", "state_product", "truncated",
                     "wire_headers"],
        )
    )
    payload = run_cell(task.params, True, task.seed)
    values = payload["values"]
    assert values["k_t"] >= 1 and values["k_r"] >= 1
    assert values["state_product"] == values["k_t"] * values["k_r"]
    assert values["truncated"] is False
    assert values["wire_headers"] >= 2


def test_backlog_cell_reports_probe_fields():
    task = compiled_cell(
        CellGroup(
            cell="backlog",
            protocol="alternating-bit",
            template="l={backlog}",
            grid={"backlog": [16]},
            metrics=["backlog_actual", "headers", "extension_packets",
                     "lower_bound", "cost_ratio", "messages_spent"],
        )
    )
    first = run_cell(task.params, True, task.seed)
    again = run_cell(task.params, True, task.seed)
    assert first == again
    values = first["values"]
    assert values["backlog_actual"] >= 16
    assert values["headers"] >= 1
    assert values["lower_bound"] == (
        values["backlog_actual"] // values["headers"]
    )
    assert first["metrics"]["engine"] == "batch"
    assert first["metrics"]["messages_spent"] >= 1


def test_backlog_cell_engine_tiers_identical(monkeypatch):
    task = compiled_cell(
        CellGroup(
            cell="backlog",
            protocol="sequence",
            template="l={backlog}",
            grid={"backlog": [12]},
            metrics=["extension_packets", "lower_bound", "headers"],
        )
    )
    payload = run_cell(task.params, True, task.seed)
    assert payload["metrics"]["engine"] == "batch"
    monkeypatch.setattr(trials, "pump_batch_refusal", lambda *args: REFUSAL)
    reference = run_cell(task.params, True, task.seed)
    assert reference["metrics"]["engine"] == "interpreted"
    assert reference["metrics"]["engine_refusal"] == REFUSAL
    assert payload["values"] == reference["values"]


def test_backlog_cell_dichotomy_mode():
    task = compiled_cell(
        CellGroup(
            cell="backlog",
            protocol="alternating-bit",
            template="dichotomy-l={backlog}",
            grid={"backlog": [12]},
            params={"dichotomy": True},
            metrics=["theorem_confirmed", "extension_packets",
                     "lower_bound"],
        )
    )
    payload = run_cell(task.params, True, task.seed)
    assert payload["values"]["theorem_confirmed"] is True


def test_unsupported_metric_raises():
    task = compiled_cell(
        CellGroup(
            cell="delivery",
            protocol="sequence",
            template="q={q}",
            grid={"q": [0.2]},
            params={"n": 2},
            metrics=["delivered"],
        )
    )
    params = dict(task.params)
    params["metrics"] = ["k_t"]  # exploration-only
    with pytest.raises(KeyError, match="k_t"):
        run_cell(params, True, task.seed)
    params["metrics"] = ["no-such-metric"]
    with pytest.raises(KeyError, match="no-such-metric"):
        run_cell(params, True, task.seed)


def test_unknown_cell_kind_raises():
    with pytest.raises(ValueError, match="unknown campaign cell"):
        run_cell({"cell": "widget", "metrics": []}, True, 0)
