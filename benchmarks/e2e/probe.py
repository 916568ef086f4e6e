"""Set-up probe: everything a command does before its first task.

Run in a fresh interpreter as::

    python benchmarks/e2e/probe.py '[["all", "--fast", "--seed", "0"], ...]'

For each argv (as given to ``python -m repro.experiments``) it performs
the imports and planning of that command and stops before the first
task or BFS level: ``plan_tasks`` for a reproduction, ``load_spec`` and
``compile_campaign`` for a campaign, and property, system and
engine-tier resolution for a check.  The imports mirror the CLI's own,
which starts every subcommand from :mod:`repro.experiments.runner`.
The process wall time is one ``setup_s`` sample.  Exits 1 if a command
plans nothing.
"""

import json
import sys

from repro.experiments.runner import REGISTRY


def _option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def setup(argv):
    """Plan one command; returns how many work units it planned."""
    fast, seed = "--fast" in argv, int(_option(argv, "--seed", 0))
    if argv[0] == "check":
        from repro.checker.cli import make_system_pair
        from repro.checker.properties import make_property
        from repro.ioa.exploration_parallel import resolve_engine_tier

        prop = make_property(_option(argv, "--property"))
        make_system_pair(
            _option(argv, "--system") or prop.default_system or "sequence"
        )
        resolve_engine_tier("auto", prop=prop, track_parents=False)
        return 1
    import repro.runtime  # noqa: F401  (the runtime the CLI schedules on)

    if argv[0] == "campaign":
        from repro.campaign.compiler import compile_campaign, load_spec
        from repro.campaign.engine import run_campaign  # noqa: F401

        spec = load_spec(argv[1])
        return len(compile_campaign(spec, fast=fast, seed=seed))
    from repro.runtime.engine import plan_tasks

    names = sorted(REGISTRY) if argv[0] == "all" else [argv[0]]
    return len(plan_tasks(names, fast=fast, seed=seed))


if __name__ == "__main__":
    planned = [setup(argv) for argv in json.loads(sys.argv[1])]
    sys.exit(0 if all(planned) else 1)
