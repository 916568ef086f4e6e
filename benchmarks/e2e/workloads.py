"""What the end-to-end benchmark runs, and what the outputs must be.

Every workload is a list of ``python -m repro.experiments`` commands,
exactly as a user types them.  One *sample* runs each command once
against a fresh, empty cache (cold), then once more against the same
cache (warm).  Placeholders in an argv -- ``{seed}``, ``{json}`` and
``{cache}`` -- are filled per invocation; ``{seed}`` is the program
seed that ``program_seed`` picks for ``--seed``.

Why these four (see README.md for the longer story):

* ``reproduce-fast`` -- the headline ``all --fast`` reproduction; E6's
  full-trace rerun dominates it, so the datalink and core delivery
  layers carry the time.  The warm rerun exercises the cache read path.
* ``reproduce-full`` -- the same without ``--fast``; adds E1's
  exploration and E4's trial grid, so the ioa BFS and trial engines
  show.
* ``campaigns`` -- the committed campaign specs: a few milliseconds of
  cells behind interpreter start and imports, so import cost decides it.
* ``check`` -- the two documented checker commands: BFS plus replay,
  no result cache, independent of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from benchmarks.e2e.tracing import EXPERIMENTS

RUN_ARGS = ("--quiet", "--json", "{json}", "--cache-dir", "{cache}")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the outcome it must produce.

    ``argv`` follows ``python -m repro.experiments``.  A command with a
    ``verdict`` is a checker command: it prints its result as JSON on
    stdout, and the verdict and configuration count must match.  Every
    other command writes a results document to ``{json}`` whose shape
    checks must all pass.
    """

    argv: Tuple[str, ...]
    exit_code: int = 0
    verdict: Optional[str] = None
    configurations: Optional[int] = None
    counterexample: bool = False


@dataclass(frozen=True)
class Workload:
    """A named list of commands plus its sampling floor.

    ``min_samples`` is the fewest cold+warm samples one run takes, even
    when they overrun ``--seconds``; runs keep sampling while the next
    sample still fits in the time budget.
    """

    name: str
    commands: Tuple[Command, ...]
    min_samples: int


def _reproduce(fast: bool) -> Tuple[Command, ...]:
    flags = ("--fast",) if fast else ()
    return (Command(("all", *flags, "--seed", "{seed}", *RUN_ARGS)),)


CAMPAIGN_SPECS = ("examples/campaign_smoke.json", "examples/backlog_campaign.json")

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("reproduce-fast", _reproduce(fast=True), min_samples=2),
        Workload("reproduce-full", _reproduce(fast=False), min_samples=2),
        Workload(
            "campaigns",
            tuple(
                Command(("campaign", spec, "--seed", "{seed}", *RUN_ARGS))
                for spec in CAMPAIGN_SPECS
            ),
            min_samples=5,
        ),
        Workload(
            "check",
            (
                Command(
                    ("check", "--property", "dl1-forgery", "--json",
                     "--expect", "violated"),
                    verdict="violated",
                    configurations=4,
                    counterexample=True,
                ),
                Command(
                    ("check", "--property", "type-ok",
                     "--system", "capacity-flooding-3-2",
                     "--alphabet", "m0,m1", "--max-messages", "3",
                     "--max-configurations", "60000", "--json",
                     "--expect", "budget-exhausted"),
                    # --expect matches, but an undecided search still
                    # exits 2.
                    exit_code=2,
                    verdict="budget-exhausted",
                    configurations=60_001,
                ),
            ),
            min_samples=5,
        ),
    )
}

#: Program seeds the commands run at.  Some shape checks compare two
#: random runs and fail on a few seeds, and the cost of ``all`` swings
#: by a third from seed to seed, so ``--seed`` is not passed through:
#: these seeds passed every check under ``vet_seeds.py`` and sit in
#: the modal cost band of seeds 0-39: cold ``all --fast`` within 5% of
#: 7.8 s and ``all`` within 5% of 9.4 s, averaged over two vetting
#: passes on the README's host.  Seeds 9, 18 and 21-25, for instance,
#: run ``all --fast`` in about 6.2 s.
SEEDS: Tuple[int, ...] = (
    3, 5, 6, 8, 10, 11, 15, 16, 17, 20, 26, 29, 31, 32, 34, 36, 37,
)


def program_seed(seed: int) -> int:
    """The program seed for ``--seed``: the same one for the same seed."""
    return SEEDS[seed % len(SEEDS)]


#: Setup probes per run; ``setup_s`` is their median.
SETUP_SAMPLES = 15

#: ``fail_ratio`` is compared as an absolute difference: any rise in
#: the share of failed operations is a regression.
FAIL_RATIO_BOUND = 0.0

REPRODUCE = ("reproduce-fast", "reproduce-full")
CACHED = REPRODUCE + ("campaigns",)
ALL = REPRODUCE + ("campaigns", "check")

#: Per-layer metric -> (end-to-end metrics it should move, workloads on
#: which it should move them).  Written down before measuring, so a
#: change that claims a layer gain says where the gain must show.
LAYER_MAP: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "runtime.plan_s": (("setup_s",), CACHED),
    "runtime.cache_get_s": (("warm_wall_s",), CACHED),
    "runtime.cache_get_calls": (("warm_wall_s",), CACHED),
    "runtime.cache_hit_ratio": (("warm_wall_s",), CACHED),
    "runtime.code_version_s": (("warm_wall_s",), CACHED),
    "runtime.merge_s": (("warm_wall_s",), CACHED),
    "runtime.cache_put_s": (("wall_s",), REPRODUCE),
    "runtime.task_self_s": (("wall_s",), REPRODUCE),
    "runtime.tasks": (("wall_s",), REPRODUCE),
    **{f"experiments.{name}_s": (("wall_s",), REPRODUCE) for name in EXPERIMENTS},
    "campaign.compile_s": (("setup_s", "wall_s"), CACHED),
    "campaign.cell_s": (("wall_s",), ("campaigns",)),
    "campaign.cells": (("wall_s",), ("campaigns",)),
    "campaign.merge_s": (("wall_s", "warm_wall_s"), ("campaigns",)),
    "core.delivery_s": (("wall_s",), REPRODUCE),
    "core.delivery_calls": (("wall_s",), REPRODUCE),
    "core.backlog_s": (("wall_s",), CACHED),
    "core.backlog_calls": (("wall_s",), CACHED),
    "core.attack_s": (("wall_s",), REPRODUCE),
    "datalink.run_s": (("wall_s", "peak_rss_mb"), ("reproduce-fast",)),
    "datalink.run_calls": (("wall_s",), ("reproduce-fast",)),
    "datalink.spec_s": (("wall_s",), ("reproduce-fast", "check")),
    "datalink.spec_calls": (("wall_s",), ("reproduce-fast",)),
    "datalink.spec_events": (("wall_s", "peak_rss_mb"), ("reproduce-fast",)),
    "ioa.explore_s": (("wall_s",), ("reproduce-full",)),
    "ioa.explore_calls": (("wall_s",), ("reproduce-full",)),
    "ioa.explore_configurations": (("wall_s",), ("reproduce-full",)),
    "ioa.explore_configs_per_s": (("wall_s",), ("reproduce-full",)),
    "checker.check_s": (("wall_s",), ("check",)),
    "checker.configurations": (("wall_s",), ("check",)),
    "checker.configs_per_s": (("wall_s",), ("check",)),
    "checker.frontier_batches": (("wall_s", "setup_s"), ("check",)),
    "checker.fallback_expansions": (("wall_s",), ("check",)),
    "checker.replay_s": (("wall_s",), ("check",)),
    "setup.numpy_loaded": (("setup_s", "wall_s"), ("check", "campaigns")),
    "trace.overhead_ratio": (("wall_s",), ALL),
    "trace.coverage": (("wall_s",), ALL),
}
