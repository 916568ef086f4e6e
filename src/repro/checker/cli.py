"""``python -m repro.experiments check`` -- the checker's CLI.

Runs one stock (or parameterised-stock) property against a named
station pair and prints the verdict, the counterexample trace (with
its concrete replay and spec verdicts) and the search statistics.

Exit codes: ``0`` when the bounded question was decided (holds *or*
violated -- a reachability property finding its target is a success),
``2`` when a budget ran out first or an argument is malformed, ``1``
when ``--expect`` named a different verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.checker.engine import check_protocol
from repro.checker.properties import STOCK_PROPERTIES, make_property

__all__ = ["SYSTEMS", "main", "make_system_pair"]


def _sequence_eager():
    from repro.datalink.broken import EagerReceiver
    from repro.datalink.sequence import SequenceSender

    return SequenceSender(), EagerReceiver()


def _sequence_blackhole():
    from repro.datalink.broken import BlackHoleReceiver
    from repro.datalink.sequence import SequenceSender

    return SequenceSender(), BlackHoleReceiver()


def _sequence_swap():
    from repro.datalink.broken import SwapReceiver
    from repro.datalink.sequence import SequenceSender

    return SequenceSender(), SwapReceiver()


def _sequence():
    from repro.datalink.sequence import make_sequence_protocol

    return make_sequence_protocol()


def _alternating_bit():
    from repro.datalink.alternating_bit import make_alternating_bit

    return make_alternating_bit()


#: name -> zero-argument factory returning ``(sender, receiver)``.
SYSTEMS = {
    "sequence": _sequence,
    "sequence-eager": _sequence_eager,
    "sequence-blackhole": _sequence_blackhole,
    "sequence-swap": _sequence_swap,
    "alternating-bit": _alternating_bit,
}


def make_system_pair(name: str):
    """Resolve a ``--system`` name to a fresh ``(sender, receiver)``.

    Beyond the fixed registry, ``modular-sequence-<k>`` and
    ``capacity-flooding-<n>-<k>`` are parsed parameterised families.
    Raises :class:`ValueError` naming ``name`` when it is unknown or
    its parameters are malformed.
    """
    factory = SYSTEMS.get(name)
    if factory is not None:
        return factory()
    try:
        if name.startswith("modular-sequence-"):
            from repro.datalink.sequence_mod import make_modular_sequence

            return make_modular_sequence(
                int(name[len("modular-sequence-"):])
            )
        if name.startswith("capacity-flooding-"):
            from repro.datalink.flooding import make_capacity_flooding

            n, k = name[len("capacity-flooding-"):].split("-")
            return make_capacity_flooding(int(n), int(k))
    except ValueError as exc:
        raise ValueError(f"malformed system {name!r}: {exc}") from exc
    raise ValueError(
        f"unknown system {name!r}; stock systems: {sorted(SYSTEMS)}, "
        "plus modular-sequence-<k> and capacity-flooding-<n>-<k>"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments check",
        description=(
            "Bounded model check of a property against a station pair "
            "(see docs/CHECKER.md)"
        ),
    )
    parser.add_argument(
        "--property",
        required=True,
        metavar="SPEC",
        help=(
            f"property spec: one of {sorted(STOCK_PROPERTIES)} "
            "(header-bound takes =N)"
        ),
    )
    parser.add_argument(
        "--system",
        default=None,
        metavar="NAME",
        help=(
            "station pair to check (default: the property's canonical "
            f"target system); stock: {sorted(SYSTEMS)}, plus "
            "modular-sequence-<k> and capacity-flooding-<n>-<k>"
        ),
    )
    parser.add_argument(
        "--alphabet",
        default="m",
        metavar="M0,M1,...",
        help="comma-separated message alphabet (default: m)",
    )
    parser.add_argument("--max-messages", type=int, default=2, metavar="N")
    parser.add_argument(
        "--max-configurations", type=int, default=200_000, metavar="N"
    )
    parser.add_argument("--workers", type=int, default=1, metavar="N")
    parser.add_argument(
        "--processes",
        action="store_true",
        help="force one OS process per shard",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=None,
        metavar="N",
        help="channel value-set bound (prune larger successors)",
    )
    parser.add_argument(
        "--store",
        choices=("memory", "disk"),
        default="memory",
        help="visited-set backend",
    )
    parser.add_argument("--store-dir", default=None, metavar="DIR")
    parser.add_argument(
        "--trace",
        choices=("auto", "inline", "off"),
        default="auto",
        help="counterexample reconstruction mode",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="LEVELS"
    )
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR")
    parser.add_argument(
        "--no-resume", action="store_true", help="ignore existing checkpoints"
    )
    parser.add_argument(
        "--no-replay",
        action="store_true",
        help="skip the concrete replay of the counterexample",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the result as JSON"
    )
    parser.add_argument(
        "--expect",
        choices=("holds", "violated", "budget-exhausted"),
        default=None,
        help="exit 1 unless the verdict matches",
    )
    args = parser.parse_args(argv)

    try:
        prop = make_property(args.property)
    except (KeyError, ValueError) as exc:
        parser.error(str(exc.args[0] if exc.args else exc))

    system = args.system
    if system is None:
        system = prop.default_system or "sequence"
    try:
        sender, receiver = make_system_pair(system)
    except ValueError as exc:
        parser.error(str(exc))
    alphabet = [part for part in args.alphabet.split(",") if part]

    try:
        result = check_protocol(
            sender,
            receiver,
            alphabet,
            prop,
            max_messages=args.max_messages,
            max_configurations=args.max_configurations,
            workers=args.workers,
            use_processes=True if args.processes else None,
            trace=args.trace,
            replay=not args.no_replay,
            store=args.store,
            store_dir=args.store_dir,
            capacity=args.capacity,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
            resume=not args.no_resume,
        )
    except ValueError as exc:
        # e.g. a negative bound, or --processes with stations that do
        # not pickle.
        parser.error(str(exc))

    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        _print_human(result, system)

    if args.expect is not None and result.verdict != args.expect:
        print(
            f"expected verdict {args.expect!r}, got {result.verdict!r}",
            file=sys.stderr,
        )
        return 1
    return 0 if result.decided else 2


def _print_human(result, system: str) -> None:
    stats = result.stats
    print(f"property   {result.property_spec} ({result.property_kind})")
    print(f"system     {system}")
    print(f"verdict    {result.verdict.upper()}")
    engine = stats.get("engine") or {}
    print(
        f"search     {stats.get('configurations', '?')} configurations, "
        f"{stats.get('levels', '?')} levels, "
        f"{stats.get('elapsed_s', '?')}s "
        f"[{engine.get('backend', '?')}, "
        f"{engine.get('shards', '?')} shard(s), "
        f"store={engine.get('store', '?')}]"
    )
    if stats.get("capacity_error"):
        print(f"capacity   {stats['capacity_error']}")
    cex = result.counterexample
    if cex is None:
        return
    print(f"counterexample ({len(cex.steps) - 1} moves, "
          f"fingerprint {cex.fingerprint()[:16]}):")
    print(cex.describe())
    if cex.execution is None:
        return
    print(f"replay     concrete={cex.concrete}")
    for note in cex.notes:
        print(f"  note: {note}")
    report = cex.spec_report
    if report is not None:
        if report.violations:
            print("spec violations exhibited:")
            for violation in report.violations:
                print(f"  {violation}")
        else:
            print("spec        no violations in the replayed execution")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
