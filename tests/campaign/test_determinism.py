"""The campaign determinism contract.

Serial, parallel, cached and resumed executions of the same spec at
the same seed produce identical merged results; cache keys are stable
under parameter-dict key reordering.
"""

import json

import pytest

from repro.campaign.compiler import campaign_for_experiment
from repro.campaign.engine import run_campaign
from repro.campaign.spec import CampaignSpec, CellGroup
from repro.runtime.cache import ResultCache
from repro.runtime.manifest import TIMING_FIELDS
from repro.runtime.task import KIND_CELL, TaskSpec


def tiny_spec():
    return CampaignSpec(
        name="tiny",
        title="tiny determinism spec",
        groups=[
            CellGroup(
                cell="adversary",
                label="grid",
                channel="nonfifo",
                grid={
                    "protocol": ["sequence", "alternating-bit"],
                    "adversary": ["optimal", "replay-flood"],
                },
                params={"n": 3},
                metrics=["delivered", "packets", "completed"],
            ),
        ],
    )


def masked(manifest):
    doc = json.loads(json.dumps(manifest))
    doc.pop("totals", None)
    # Scheduling configuration legitimately differs between the runs
    # under comparison; the deterministic sections must not.
    doc.pop("workers", None)
    doc.pop("cache_dir", None)
    for task in doc["tasks"]:
        for field in TIMING_FIELDS:
            task.pop(field, None)
    return doc


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("campaign-cache")
    serial = run_campaign(tiny_spec(), fast=True, seed=0, workers=1)
    parallel = run_campaign(tiny_spec(), fast=True, seed=0, workers=2)
    cold = run_campaign(
        tiny_spec(), fast=True, seed=0, cache=ResultCache(str(cache_dir))
    )
    warm = run_campaign(
        tiny_spec(), fast=True, seed=0, cache=ResultCache(str(cache_dir))
    )
    return {
        "serial": serial, "parallel": parallel,
        "cold": cold, "warm": warm,
    }


def test_serial_equals_parallel(runs):
    assert (
        runs["serial"].result.to_dict() == runs["parallel"].result.to_dict()
    )


def test_cached_and_resumed_equal_serial(runs):
    assert runs["cold"].result.to_dict() == runs["serial"].result.to_dict()
    assert runs["warm"].result.to_dict() == runs["serial"].result.to_dict()


def test_warm_run_is_fully_cached(runs):
    statuses = [o.status for o in runs["warm"].outcomes]
    assert statuses and all(s == "cached" for s in statuses)


def test_masked_manifests_identical(runs):
    reference = masked(runs["serial"].manifest)
    for key in ("parallel", "cold", "warm"):
        assert masked(runs[key].manifest) == reference


def test_manifest_carries_campaign_identity(runs):
    identity = runs["serial"].manifest["campaign"]
    assert identity["name"] == "tiny"
    assert identity["cells"] == 4
    assert identity["experiment"] is None


@pytest.mark.parametrize("workers, expected", [(None, 1), (2, 2)])
@pytest.mark.parametrize("backed", [False, True],
                         ids=["cells", "experiment-backed"])
def test_manifest_records_the_worker_count_that_ran(backed, workers,
                                                    expected):
    """``workers=None`` runs a campaign serially (its tasks share one
    experiment id) and the manifest says so on both run paths."""
    spec = campaign_for_experiment("hoeffding") if backed else tiny_spec()
    report = run_campaign(spec, fast=True, seed=0, workers=workers)
    assert report.manifest["workers"] == expected


def cell_spec(params):
    return TaskSpec(
        experiment="campaign:key", shard="cell-0", params=params,
        fast=True, seed=9, kind=KIND_CELL,
    )


def test_cache_key_stable_under_param_reordering(tmp_path):
    cache = ResultCache(str(tmp_path))
    a = cell_spec({"cell": "delivery", "config": {"q": 0.1, "n": 4},
                   "metrics": ["delivered"]})
    b = cell_spec({"metrics": ["delivered"],
                   "config": {"n": 4, "q": 0.1}, "cell": "delivery"})
    assert cache.key(a) == cache.key(b)


def test_cache_key_sensitive_to_values(tmp_path):
    cache = ResultCache(str(tmp_path))
    a = cell_spec({"config": {"q": 0.1}})
    b = cell_spec({"config": {"q": 0.2}})
    assert cache.key(a) != cache.key(b)
