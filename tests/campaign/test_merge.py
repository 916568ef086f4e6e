"""Folding settled cell payloads into an ``ExperimentResult``."""

import json

from repro.campaign.merge import aggregate_metrics, merge_campaign
from repro.campaign.spec import CampaignSpec, CellGroup
from repro.experiments.base import ExperimentResult


def spec():
    return CampaignSpec(
        name="m",
        title="merge test",
        groups=[
            CellGroup(
                cell="delivery",
                label="grid",
                protocol="sequence",
                template="q={q}",
                grid={"q": [0.1, 0.2]},
                params={"n": 2},
                metrics=["delivered", "packets"],
            ),
        ],
        notes=["spec note"],
    )


def payload(shard, q, delivered=2, packets=8):
    return {
        "shard": shard,
        "group": 0,
        "point": {"q": q},
        "values": {"delivered": delivered, "packets": packets},
        "metrics": {"packets_total": packets, "engine": "auto"},
    }


def test_merge_shape_and_order():
    result = merge_campaign(
        spec(), [payload("q=0.1", 0.1), payload("q=0.2", 0.2)], fast=False
    )
    assert result.exp_id == "m" and result.title == "merge test"
    (table,) = result.tables
    assert list(table.headers) == ["q", "delivered", "packets"]
    assert [row[0] for row in table.rows] == ["0.1", "0.2"]
    assert result.checks == {
        "grid: all 2 cells reported every metric": True
    }
    assert result.notes == ["spec note"]
    assert result.metrics["packets_total"] == 16
    assert result.metrics["engine"] == "auto"
    # The merged object round-trips like any bespoke result.
    encoded = json.dumps(result.to_dict())
    assert ExperimentResult.from_dict(json.loads(encoded)).to_dict() == (
        result.to_dict()
    )


def test_merge_order_independent_of_payload_order():
    forward = merge_campaign(
        spec(), [payload("q=0.1", 0.1), payload("q=0.2", 0.2)], fast=False
    )
    reversed_ = merge_campaign(
        spec(), [payload("q=0.2", 0.2), payload("q=0.1", 0.1)], fast=False
    )
    assert forward.to_dict() == reversed_.to_dict()


def test_missing_cell_fails_completeness():
    result = merge_campaign(spec(), [payload("q=0.1", 0.1)], fast=False)
    assert not result.passed
    (table,) = result.tables
    assert table.rows[1][1:] == ["None", "None"]


def test_missing_metric_fails_completeness():
    partial = payload("q=0.2", 0.2)
    del partial["values"]["packets"]
    result = merge_campaign(
        spec(), [payload("q=0.1", 0.1), partial], fast=False
    )
    assert not result.passed


def test_aggregate_metrics_discipline():
    target = {}
    aggregate_metrics(target, {"packets": 3, "peak_copies": 5,
                               "engine": "batch"})
    aggregate_metrics(target, {"packets": 4, "peak_copies": 2,
                               "engine": "batch"})
    assert target == {"packets": 7, "peak_copies": 5, "engine": "batch"}
