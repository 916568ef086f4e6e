"""Integration: every example script runs clean as a subprocess.

The examples are the library's front door; a release in which they
crash is broken no matter what the unit tests say.
"""

import json
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"

EXPECTED_EXAMPLES = {
    "quickstart.py",
    "forging_alternating_bit.py",
    "backlog_cost.py",
    "probabilistic_blowup.py",
    "ttl_rescues_wraparound.py",
    "transport_over_network.py",
    "campaign_sweep.py",
}


def run_example(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=420,
    )


def test_every_expected_example_exists():
    present = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    assert EXPECTED_EXAMPLES <= present


@pytest.mark.parametrize("name", sorted(EXPECTED_EXAMPLES))
def test_example_runs_clean(name):
    result = run_example(name)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"


def test_quickstart_reports_valid_spec():
    result = run_example("quickstart.py")
    assert "DL1/DL2/PL1 OK" in result.stdout


def test_forgery_example_shows_violation():
    result = run_example("forging_alternating_bit.py")
    assert "rm=" in result.stdout
    assert "forged" in result.stdout.lower()


def test_blowup_example_accepts_q_argument():
    result = run_example("probabilistic_blowup.py", "0.2")
    assert result.returncode == 0
    assert "q=0.2" in result.stdout


# Committed JSON campaign specs; validated and compiled like the CI
# campaign steps, without paying for a full run per test.
EXPECTED_SPECS = {"campaign_smoke.json", "backlog_campaign.json"}


def test_every_expected_spec_exists():
    present = {path.name for path in EXAMPLES_DIR.glob("*.json")}
    assert EXPECTED_SPECS <= present


@pytest.mark.parametrize("name", sorted(EXPECTED_SPECS))
def test_committed_spec_compiles(name):
    from repro.campaign.compiler import compile_campaign
    from repro.campaign.registry import validate_spec
    from repro.campaign.spec import CampaignSpec

    data = json.loads((EXAMPLES_DIR / name).read_text(encoding="utf-8"))
    spec = CampaignSpec.from_dict(data)
    spec.validate()
    validate_spec(spec)
    for fast in (True, False):
        tasks = compile_campaign(spec, fast=fast)
        assert tasks, f"{name} compiles to an empty grid (fast={fast})"


def test_backlog_campaign_cells_run():
    """The committed backlog spec's fast cells execute end to end and
    report every requested metric and the batch pumping tier (the CI
    backlog-campaign step runs the same spec through the CLI)."""
    from repro.campaign.cells import run_cell
    from repro.campaign.compiler import compile_campaign
    from repro.campaign.spec import CampaignSpec

    data = json.loads(
        (EXAMPLES_DIR / "backlog_campaign.json").read_text(encoding="utf-8")
    )
    tasks = compile_campaign(CampaignSpec.from_dict(data), fast=True)
    for task in tasks:
        payload = run_cell(task.params, True, task.seed)
        assert set(payload["values"]) == set(task.params["metrics"])
        assert payload["metrics"]["engine"] == "batch"
