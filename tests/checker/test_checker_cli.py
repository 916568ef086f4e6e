"""Unit tests: the ``check`` CLI rejects malformed arguments cleanly.

A malformed ``--system`` name or an out-of-range bound is a usage
error: argparse's exit code 2 with a message naming the argument, never
a traceback and never a vacuous verdict.
"""

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
        ({"checkpoint_every": -1}, "checkpoint_every"),
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
        ({"checkpoint_every": -1}, "checkpoint_every"),
    ],
)
def test_exploration_rejects_out_of_range_bounds(kwargs, name):
    with pytest.raises(ValueError, match=name):
        explore_station_states(*make_sequence_protocol(), ["m"], **kwargs)
