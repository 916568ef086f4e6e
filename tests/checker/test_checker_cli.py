"""Unit tests: the ``check`` CLI rejects malformed arguments cleanly.

A malformed ``--system`` name, an empty ``--alphabet`` or an
out-of-range bound is a usage error: argparse's exit code 2 with a
message naming the argument, never a traceback and never a vacuous
verdict.  The last tests read the ``--json`` output: the spec verdict
of a counterexample, and the results of the two commands
docs/CHECKER.md documents.
"""

import json

import pytest

from repro.checker import check_protocol
from repro.checker.cli import main
from repro.datalink.sequence import make_sequence_protocol
from repro.ioa.exploration import explore_station_states


@pytest.mark.parametrize(
    "system",
    [
        "capacity-flooding-x-2",
        "capacity-flooding-3",
        "modular-sequence-x",
        "modular-sequence-0",
        "bogus",
    ],
)
def test_malformed_system_is_a_usage_error(system, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--property", "type-ok", "--system", system])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert repr(system) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("alphabet", ["", ","], ids=["empty", "comma"])
def test_empty_alphabet_is_a_usage_error(alphabet, capsys):
    """An alphabet with no message would check a search that can never
    inject, and report a vacuous HOLDS."""
    with pytest.raises(SystemExit) as exit_info:
        main(["--property", "dl1-forgery", "--system", "sequence-eager",
              "--alphabet", alphabet])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--alphabet" in err
    assert "Traceback" not in err


def test_negative_capacity_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--property", "dl1-forgery", "--capacity", "-1"])
    assert exit_info.value.code == 2
    assert "capacity" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kwargs,name",
    [
        ({"max_messages": -1}, "max_messages"),
        ({"max_configurations": -5}, "max_configurations"),
        ({"capacity": 0}, "capacity"),
        ({"capacity": -1}, "capacity"),
    ],
)
def test_check_protocol_rejects_out_of_range_bounds(kwargs, name):
    with pytest.raises(ValueError, match=name):
        check_protocol(*make_sequence_protocol(), ["m"], "dl1-forgery",
                       **kwargs)


@pytest.mark.parametrize(
    "kwargs,name",
    [
        ({"max_messages": -1}, "max_messages"),
        ({"max_configurations": -5}, "max_configurations"),
    ],
)
def test_exploration_rejects_out_of_range_bounds(kwargs, name):
    with pytest.raises(ValueError, match=name):
        explore_station_states(*make_sequence_protocol(), ["m"], **kwargs)


def test_forgery_counterexample_reports_no_pending_messages(capsys):
    """The forged run sends 1 message and delivers 2: its one send is
    matched, so nothing is pending (``sm - rm`` would say -1)."""
    assert main(["--property", "dl1-forgery", "--json",
                 "--expect", "violated"]) == 0
    spec = json.loads(capsys.readouterr().out)["counterexample"]["spec"]
    assert [v["property"] for v in spec["violations"]] == ["DL1", "DL1/DL2"]
    assert spec["pending_messages"] == 0


@pytest.mark.parametrize(
    "argv,code,verdict,configurations,levels,fingerprint",
    [
        (["--property", "dl1-forgery"], 0, "violated", 4, 4,
         "38e272e504a67d87"),
        (["--property", "type-ok", "--system", "capacity-flooding-3-2",
          "--alphabet", "m0,m1", "--max-messages", "3",
          "--max-configurations", "60000"],
         2, "budget-exhausted", 60_001, 1_895, None),
    ],
    ids=["dl1-forgery", "type-ok-60k"],
)
def test_documented_commands(argv, code, verdict, configurations, levels,
                             fingerprint, capsys):
    """The forgery and the level-barrier cut of the two documented
    commands: their verdict, counts and counterexample fingerprint."""
    assert main([*argv, "--json"]) == code
    result = json.loads(capsys.readouterr().out)
    assert result["verdict"] == verdict
    assert result["stats"]["configurations"] == configurations
    assert result["stats"]["levels"] == levels
    cex = result["counterexample"]
    if fingerprint is None:
        assert cex is None
    else:
        assert cex["fingerprint"].startswith(fingerprint)
