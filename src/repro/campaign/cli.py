"""Command-line front ends for the campaign layer.

``python -m repro.experiments campaign SPEC.json`` runs one campaign
spec through the task runtime, with the experiment runner's run flags
(:func:`repro.experiments.runner.add_run_flags`: ``--parallel``,
``--json``, caching, ...) and its default worker count; ``python -m
repro.experiments list`` prints every registry a spec can name.  Both
are dispatched from :mod:`repro.experiments.runner` on the raw argv,
like ``check``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import List, Optional


def campaign_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``... campaign SPEC.json``; returns exit code."""
    from repro.campaign.compiler import load_spec
    from repro.campaign.engine import run_campaign
    from repro.campaign.spec import SpecError
    from repro.experiments.runner import (
        add_run_flags,
        run_with_flags,
        write_run_json,
    )

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
    add_run_flags(parser)
    args = parser.parse_args(argv)

    try:
        spec = load_spec(args.spec)
        report = run_with_flags(
            parser, args, functools.partial(run_campaign, spec)
        )
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if report is None:
        return 1

    print(report.result.render())
    if args.json is not None:
        write_run_json(
            args.json,
            {
                "campaign": spec.to_dict(),
                "experiments": [report.result.to_dict()],
                "manifest": report.manifest,
                "passed": report.passed,
            },
        )
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
