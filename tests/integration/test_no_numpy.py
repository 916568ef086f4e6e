"""Integration: the documented commands never import numpy.

The library is pure Python.  Every engine tier it ships -- the
interpreted reference and the compiled ``batch`` trial engines -- runs
on the standard library, so a command that loads numpy is paying an
import nobody asked for.  Each case runs one CLI command in a fresh
interpreter and reports whether ``numpy`` ended up in ``sys.modules``.
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]

PROBE = """
import sys
from repro.experiments.runner import main
code = main(sys.argv[1:])
print("exit=%s numpy=%s" % (code, "numpy" in sys.modules))
"""

COMMANDS = {
    "check": (
        [
            "check", "--property", "type-ok",
            "--system", "capacity-flooding-3-2", "--alphabet", "m0,m1",
            "--max-messages", "3", "--max-configurations", "2000",
            "--json",
        ],
        2,  # an undecided (budget-exhausted) search exits 2
    ),
    "campaign": (
        [
            "campaign", str(REPO / "examples" / "backlog_campaign.json"),
            "--fast", "--no-cache", "--quiet",
        ],
        0,
    ),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_runs_without_numpy(name):
    argv, expected_exit = COMMANDS[name]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=str(REPO),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    status = result.stdout.strip().splitlines()[-1]
    assert status == f"exit={expected_exit} numpy=False", status
