"""Command-line front ends for the campaign layer.

``python -m repro.experiments campaign SPEC.json`` runs one campaign
spec through the task runtime (same scheduling flags as the experiment
runner: ``--parallel``, ``--engine``, ``--json``, caching); ``python
-m repro.experiments list`` prints every registry a spec can name.
Both are dispatched from :mod:`repro.experiments.runner` on the raw
argv, like ``check``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


def campaign_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``... campaign SPEC.json``; returns exit code."""
    from repro.campaign.compiler import load_spec
    from repro.campaign.engine import run_campaign
    from repro.campaign.spec import SpecError
    from repro.core.trials import TRIAL_ENGINES
    from repro.runtime import (
        ResultCache,
        TaskFailure,
        TextProgressReporter,
    )
    from repro.runtime.cache import default_cache_dir

    parser = argparse.ArgumentParser(
        prog="repro-experiments campaign",
        description=(
            "Run a declarative campaign spec (protocol x channel x "
            "adversary x parameter grid) through the task runtime"
        ),
    )
    parser.add_argument(
        "spec", help="path to the campaign spec JSON file"
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="use the spec's fast (CI-sized) axis values",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="root randomness seed"
    )
    parser.add_argument(
        "--parallel",
        metavar="N",
        type=int,
        default=1,
        help="worker processes (default 1 = serial in-process)",
    )
    parser.add_argument(
        "--engine",
        choices=TRIAL_ENGINES,
        default="auto",
        help=(
            "trial-engine tier for delivery and backlog cells; the "
            "tiers are bit-identical (default: auto)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute everything; neither read nor write the cache",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help=(
            "result cache directory (default: $REPRO_CACHE_DIR or "
            ".repro-cache)"
        ),
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write the result + run manifest as JSON to FILE",
    )
    parser.add_argument(
        "--timeout",
        metavar="SECONDS",
        type=float,
        default=None,
        help=(
            "per-task wall-clock limit; tasks then run in worker "
            "processes (at least one), so it is enforced on every path"
        ),
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the live progress report (stderr)",
    )
    args = parser.parse_args(argv)
    if args.parallel < 1:
        parser.error("--parallel must be >= 1")

    try:
        spec = load_spec(args.spec)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cache = (
        None
        if args.no_cache
        else ResultCache(args.cache_dir or default_cache_dir())
    )
    reporter = None if args.quiet else TextProgressReporter(sys.stderr)
    try:
        report = run_campaign(
            spec,
            fast=args.fast,
            seed=args.seed,
            workers=args.parallel,
            cache=cache,
            timeout=args.timeout,
            reporter=reporter,
            engine=args.engine,
        )
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TaskFailure as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1

    print(report.result.render())
    if args.json is not None:
        document = {
            "campaign": spec.to_dict(),
            "experiments": [report.result.to_dict()],
            "manifest": report.manifest,
            "passed": report.passed,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            # Insertion order is meaningful and deterministic, as in
            # the experiment runner's JSON document -- no key sorting.
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"run manifest written to {args.json}")
    return 0 if report.passed else 1


def _first_line(text: Optional[str]) -> str:
    return (text or "").strip().splitlines()[0] if text else ""


def list_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``... list``: print every registry."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments list",
        description=(
            "Print the experiment registry and the campaign "
            "protocol/channel/adversary/metric registries"
        ),
    )
    parser.parse_args(argv)

    from repro.campaign import registry
    from repro.experiments.runner import REGISTRY, SHARDED

    print("experiments:")
    for name in sorted(REGISTRY):
        module = sys.modules.get(REGISTRY[name].__module__)
        exp_id = getattr(module, "EXP_ID", "?")
        title = getattr(module, "TITLE", "")
        sharded = "sharded" if name in SHARDED else "whole"
        print(f"  {name:<16} {exp_id:<4} {sharded:<8} {title}")

    print()
    print("campaign protocols:")
    for name in sorted(registry.PROTOCOLS):
        doc = _first_line(registry.PROTOCOLS[name].__doc__)
        print(f"  {name:<20} {doc}")

    print()
    print("campaign channels:")
    for name in sorted(registry.CHANNELS):
        doc = _first_line(registry.CHANNELS[name].__doc__)
        print(f"  {name:<20} {doc}")

    print()
    print("campaign adversaries:")
    for name in sorted(registry.ADVERSARIES):
        doc = _first_line(registry.ADVERSARIES[name].__doc__)
        print(f"  {name:<20} {doc}")

    print()
    print("campaign metrics:")
    for name in sorted(registry.METRICS):
        extractor = registry.METRICS[name]
        cells = ",".join(extractor.cells)
        print(f"  {name:<20} [{cells}] {extractor.description}")
    return 0
