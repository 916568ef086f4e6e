"""Theorem 4.1 as an executable probe: the backlog dichotomy.

    **Theorem 4.1.** Any protocol for delivering ``n`` messages using
    ``k < n`` headers can not be ``P_f``-bounded for any monotonically
    increasing function ``f`` such that ``f(l) <= floor(l/k)`` for some
    ``l < n``.

Operationally the theorem is a *dichotomy*: build up a backlog of ``l``
packets in transit (the proof's inductive construction delays one more
"dominant" packet per delivered message), then ask the protocol to
deliver the next message under optimal channel behaviour.  Either

* the extension sends **more** than ``floor(l/k)`` packets -- a
  certified violation of the ``P_f`` bound at this configuration -- or
* the extension's receipts are covered by the stale pool, in which case
  the replay attack forges a delivery and the protocol is not a data
  link protocol at all.

:func:`run_dichotomy` executes exactly that case split.
:func:`probe_backlog_cost` is the measurement-only variant used by
experiment E3 to trace the cost-vs-backlog curve whose Theta(backlog)
shape [Afe88]'s protocol achieves and Theorem 4.1 proves optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

from repro.channels.packets import Packet
from repro.core import trials
from repro.core.extensions import Extension, find_extension
from repro.core.pumping import ReservePool, pump_message
from repro.core.replay import ReplayOutcome, attempt_replay
from repro.datalink.stations import ReceiverStation, SenderStation
from repro.datalink.system import DataLinkSystem, make_system
from repro.ioa.actions import Direction
from repro.ioa.execution import TraceMode


@dataclass
class BacklogProbe:
    """Measured cost of one message at one backlog level (E3's datum).

    Attributes:
        backlog_target: the ``l`` requested.
        backlog_actual: packets actually in transit when measured (the
            pumping may add a few working copies beyond the hoard).
        headers: distinct packet values used on the forward channel.
        extension_packets: ``sp^{t->r}(beta)`` -- packets needed to
            deliver the next message from here.
        lower_bound: ``floor(backlog_actual / headers)``, the
            Theorem 4.1 floor.
        messages_spent: messages delivered while building the backlog.
    """

    backlog_target: int
    backlog_actual: int
    headers: int
    extension_packets: int
    lower_bound: int
    messages_spent: int

    @property
    def ratio(self) -> float:
        """Cost per unit of backlog (the E3 slope estimate)."""
        if self.backlog_actual == 0:
            return float(self.extension_packets)
        return self.extension_packets / self.backlog_actual


@dataclass
class BacklogDichotomy:
    """Outcome of the Theorem 4.1 case split at one configuration."""

    probe: BacklogProbe
    exceeded_bound: bool
    forged: bool
    replay: Optional[ReplayOutcome] = None

    @property
    def theorem_confirmed(self) -> bool:
        """The theorem's disjunction holds at this configuration."""
        return self.exceeded_bound or self.forged


def plant_backlog(
    pair_factory: Callable[[], Tuple[SenderStation, ReceiverStation]],
    backlog: int,
    message: Hashable = "m",
    max_messages: int = 4096,
    max_steps_per_message: int = 50_000,
    discovery_messages: int = 8,
    trace_mode: TraceMode = TraceMode.FULL,
    engine: str = "auto",
) -> Tuple[DataLinkSystem, ReservePool, int]:
    """Build a valid execution with ~``backlog`` packets in transit.

    Mirrors the proof's construction in two phases:

    1. **Discovery** -- deliver a few messages with nothing hoarded, to
       learn the repertoire of forward packet values the protocol
       cycles through (the proof knows ``P = {p_1..p_k}`` a priori; we
       observe it).
    2. **Spread hoarding** -- deliver further messages while the
       channel holds back up to ``ceil(backlog / k)`` copies of *each*
       value, the even spread of the proof's ``m_{i,j} <= ceil(l/k)``
       invariant, until the pool reaches ``backlog``.

    Returns:
        ``(system, pool, messages_spent)`` -- the live system in a
        valid configuration with the backlog planted.

    ``engine`` is one of :data:`~repro.core.trials.TRIAL_ENGINES`.
    ``"auto"`` (default) runs the batch pumping engine
    (:mod:`repro.core.trials`) when only counters are being recorded
    -- it executes the same two phases on the live stations with the
    channels in value-id space and materialises an indistinguishable
    final configuration -- and falls back to the interpreted
    construction for FULL traces; ``"interpreted"`` forces the
    fallback, ``"batch"`` insists and raises when unsupported.  Both
    tiers are bit-identical, so the choice changes speed only.

    Raises:
        ValueError: ``backlog``, ``max_messages``,
            ``max_steps_per_message`` or ``discovery_messages`` is
            negative, or ``engine`` is unknown (or ``"batch"`` and the
            trace mode is not COUNTS).  ``backlog`` 0 is allowed and
            still plants one copy per value.
    """
    for name, count in (
        ("backlog", backlog),
        ("max_messages", max_messages),
        ("max_steps_per_message", max_steps_per_message),
        ("discovery_messages", discovery_messages),
    ):
        if count < 0:
            raise ValueError(f"{name} must be non-negative, got {count}")
    if engine not in trials.TRIAL_ENGINES:
        raise ValueError(
            f"engine must be one of {trials.TRIAL_ENGINES}, got {engine!r}"
        )
    if engine != "interpreted":
        refusal = trials.pump_batch_refusal(trace_mode)
        if refusal is None:
            return trials.plant_backlog_batch(
                pair_factory,
                backlog,
                message=message,
                max_messages=max_messages,
                max_steps_per_message=max_steps_per_message,
                discovery_messages=discovery_messages,
            )
        if engine == "batch":
            raise ValueError(
                f"the batch pumping engine cannot run this: {refusal}"
            )
    sender, receiver = pair_factory()
    system = make_system(sender, receiver, trace_mode=trace_mode)
    pool = ReservePool()
    messages_spent = 0

    # Phase 1: discovery.
    for _ in range(discovery_messages):
        delivered = pump_message(
            system,
            message,
            quota=lambda packet: 0,
            pool=pool,
            max_steps=max_steps_per_message,
        )
        messages_spent += 1
        if not delivered:
            raise RuntimeError(
                "protocol failed to deliver during backlog discovery"
            )
    repertoire = {
        copy for copy in system.execution.distinct_packets(Direction.T2R)
    }
    k = max(1, len(repertoire))
    # The proof works with l-hat = k * floor(l/k): an exactly even
    # spread of floor(l/k) copies per value (at least one, so small
    # targets still plant something on every value).
    per_value = max(1, backlog // k)
    target_total = per_value * k

    # Phase 2: spread hoarding.  The quota applies to every value the
    # protocol sends -- including values outside the discovery
    # repertoire (the naive protocol mints a fresh one per message), so
    # the pool keeps filling either way.
    def quota(packet: Packet) -> int:
        if pool.total() >= target_total:
            return pool.count(packet)
        return per_value

    while pool.total() < target_total and messages_spent < max_messages:
        delivered = pump_message(
            system,
            message,
            quota=quota,
            pool=pool,
            max_steps=max_steps_per_message,
        )
        messages_spent += 1
        if not delivered:
            raise RuntimeError(
                f"backlog pumping starved the protocol after "
                f"{messages_spent} messages with pool {pool.total()}"
            )
    return system, pool, messages_spent


def probe_backlog_cost(
    pair_factory: Callable[[], Tuple[SenderStation, ReceiverStation]],
    backlog: int,
    message: Hashable = "m",
    max_messages: int = 4096,
    max_steps: int = 200_000,
    engine: str = "auto",
) -> BacklogProbe:
    """Measure the packet cost of the next message at a backlog level.

    Only counters and channel state are consumed, so the pumping runs
    in ``TraceMode.COUNTS`` (the extension itself is measured on a
    FULL-mode clone either way); under the default ``engine="auto"``
    that selects the batch pumping engine.
    """
    system, pool, spent = plant_backlog(
        pair_factory,
        backlog,
        message=message,
        max_messages=max_messages,
        max_steps_per_message=max_steps,
        trace_mode=TraceMode.COUNTS,
        engine=engine,
    )
    return _probe(system, spent, message, max_steps)


def probe_backlog_costs(
    pair_factory: Callable[[], Tuple[SenderStation, ReceiverStation]],
    backlogs: Sequence[int],
    message: Hashable = "m",
    max_messages: int = 4096,
    max_steps: int = 200_000,
    engine: str = "auto",
) -> List[BacklogProbe]:
    """Measure a whole cost-vs-backlog curve: one
    :func:`probe_backlog_cost` per level, in input order."""
    return [
        probe_backlog_cost(
            pair_factory,
            backlog,
            message=message,
            max_messages=max_messages,
            max_steps=max_steps,
            engine=engine,
        )
        for backlog in backlogs
    ]


def _probe(
    system: DataLinkSystem,
    messages_spent: int,
    message: Hashable,
    max_steps: int,
) -> BacklogProbe:
    backlog_actual = system.chan_t2r.transit_size()
    headers = len(system.execution.distinct_packets(Direction.T2R))
    extension: Extension = find_extension(
        system, message=message, max_steps=max_steps
    )
    return BacklogProbe(
        backlog_target=backlog_actual,
        backlog_actual=backlog_actual,
        headers=max(1, headers),
        extension_packets=extension.sp_t2r if extension.delivered else -1,
        lower_bound=backlog_actual // max(1, headers),
        messages_spent=messages_spent,
    )


def run_dichotomy(
    pair_factory: Callable[[], Tuple[SenderStation, ReceiverStation]],
    backlog: int,
    message: Hashable = "m",
    max_messages: int = 4096,
    max_steps: int = 200_000,
    engine: str = "auto",
) -> BacklogDichotomy:
    """Execute the Theorem 4.1 case split at one backlog level.

    Plant the backlog (via the batch pumping engine under the default
    ``engine="auto"``), then: if the delivering extension costs
    more than ``floor(l/k)``, the ``P_f`` bound is violated here (first
    horn of the dichotomy); otherwise attempt the replay forgery, which
    the proof shows must succeed (second horn).
    """
    system, pool, spent = plant_backlog(
        pair_factory,
        backlog,
        message=message,
        max_messages=max_messages,
        max_steps_per_message=max_steps,
        trace_mode=TraceMode.COUNTS,
        engine=engine,
    )
    probe = _probe(system, spent, message, max_steps)
    exceeded = (
        probe.extension_packets < 0
        or probe.extension_packets > probe.lower_bound
    )
    replay = None
    forged = False
    if not exceeded:
        replay = attempt_replay(system, message=message, max_steps=max_steps)
        forged = replay.success and replay.executed
    return BacklogDichotomy(
        probe=probe,
        exceeded_bound=exceeded,
        forged=forged,
        replay=replay,
    )
