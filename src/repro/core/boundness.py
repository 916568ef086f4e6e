"""Boundness: definitions of Section 2.3 and the Theorem 2.1 analysis.

Informally, the boundness of a protocol bounds "the number of packets
that have to be sent, from any point when the physical layer starts
behaving in the optimal way, until the current message is received".
The paper defines three flavours over semi-valid executions ``alpha``
and their extensions ``beta`` (which :mod:`repro.core.extensions`
computes):

* ``k``-bounded: ``sp^{t->r}(beta) <= k`` for a constant ``k``;
* ``M_f``-bounded: ``sp^{t->r}(beta) <= f(sm(alpha))`` (a function of
  the messages delivered so far, Definition 5);
* ``P_f``-bounded: ``sp^{t->r}(beta) <= f(sp(alpha) - rp(alpha))`` (a
  function of the packets in transit, Definition 6).

And connects boundness to space:

    **Theorem 2.1.** Any data link protocol ``A = (A^t, A^r)`` is
    ``k_t k_r``-bounded, where ``k_t`` and ``k_r`` are the numbers of
    states of the automata.

This module measures boundness empirically -- sample semi-valid
configurations by running the protocol through adversarial prefixes,
compute each extension, and take the maximum ``sp^{t->r}(beta)`` --
and verifies the Theorem 2.1 inequality against the station state
counts enumerated by :func:`repro.ioa.exploration.explore_station_states`
over the states reachable without a forged delivery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, List, Optional, Tuple

from repro.channels.adversary import ChannelAdversary, RandomAdversary
from repro.core.extensions import CycleCertificate, find_extension
from repro.datalink.stations import ReceiverStation, SenderStation
from repro.datalink.system import DataLinkSystem, make_system
from repro.ioa.exploration import ExplorationResult, explore_station_states


@dataclass
class BoundnessSample:
    """One sampled semi-valid configuration and its extension cost."""

    prefix_messages: int
    prefix_backlog: int
    extension_packets: int
    delivered: bool
    cycle: Optional[CycleCertificate] = None


@dataclass
class BoundnessReport:
    """Empirical boundness of a protocol over sampled prefixes.

    Attributes:
        samples: every sampled configuration with its extension cost.
        boundness: the maximum observed ``sp^{t->r}(beta)`` -- a lower
            bound on the protocol's true boundness.
        all_delivered: False when some sampled configuration had no
            delivering extension (a liveness bug or a livelock; the
            cycle certificate says which).
    """

    samples: List[BoundnessSample] = field(default_factory=list)

    @property
    def boundness(self) -> int:
        """Max extension cost over the delivered samples."""
        costs = [s.extension_packets for s in self.samples if s.delivered]
        return max(costs, default=0)

    @property
    def all_delivered(self) -> bool:
        """Every sampled configuration had a delivering extension."""
        return all(s.delivered for s in self.samples)

    def worst(self) -> Optional[BoundnessSample]:
        """The sample achieving the measured boundness."""
        delivered = [s for s in self.samples if s.delivered]
        if not delivered:
            return None
        return max(delivered, key=lambda s: s.extension_packets)


def measure_boundness(
    pair_factory: Callable[[], Tuple[SenderStation, ReceiverStation]],
    prefix_lengths: Tuple[int, ...] = (0, 1, 2, 4, 8),
    seeds: Tuple[int, ...] = (0, 1, 2, 3),
    message: Hashable = "m",
    adversary_factory: Optional[Callable[[int], ChannelAdversary]] = None,
    max_steps: int = 20_000,
    track_states: bool = False,
) -> BoundnessReport:
    """Sample semi-valid configurations and measure extension costs.

    For each (prefix length, seed) pair: run the protocol through
    ``prefix_length`` legitimate messages under a randomized lossy
    adversary (a valid execution ``alpha_1``), submit one more message
    (making the execution semi-valid), and measure the optimal-channel
    extension.

    Args:
        pair_factory: builds a fresh sender/receiver pair.
        prefix_lengths: how many messages each sampled prefix delivers.
        seeds: adversary randomizations per prefix length.
        message: the (constant) message value used throughout.
        adversary_factory: adversary for the prefix phase, by seed.
            Default: a moderately lossy :class:`RandomAdversary`.
        max_steps: budget for both the prefix run and the extension.
        track_states: also run cycle detection on each extension.

    Returns:
        A :class:`BoundnessReport` over all samples.
    """
    if adversary_factory is None:
        adversary_factory = lambda seed: RandomAdversary(  # noqa: E731
            seed=seed, p_deliver=0.45, p_drop=0.1
        )
    report = BoundnessReport()
    for prefix_length in prefix_lengths:
        for seed in seeds:
            sender, receiver = pair_factory()
            system = make_system(
                sender, receiver, adversary=adversary_factory(seed)
            )
            stats = system.run(
                [message] * prefix_length, max_steps=max_steps
            )
            if not stats.completed:
                # The random adversary may starve liveness (it is
                # allowed to); skip prefixes that did not complete, as
                # they are not valid executions.
                continue
            backlog = system.chan_t2r.transit_size()
            extension = find_extension(
                system,
                message=message,
                max_steps=max_steps,
                track_states=track_states,
            )
            report.samples.append(
                BoundnessSample(
                    prefix_messages=prefix_length,
                    prefix_backlog=backlog,
                    extension_packets=extension.sp_t2r,
                    delivered=extension.delivered,
                    cycle=extension.cycle,
                )
            )
    return report


@dataclass
class Theorem21Verdict:
    """Result of checking ``boundness <= k_t * k_r`` for one protocol.

    Attributes:
        report: the boundness samples the verdict was measured on.
        exploration: the station-state enumeration giving ``k_t``/``k_r``.
        holds: ``boundness <= state_product`` over an exploration that
            was not truncated.  A truncated search covers only part of
            the region, so its product bounds nothing and the verdict
            is false.
    """

    report: BoundnessReport
    exploration: ExplorationResult
    holds: bool

    @property
    def boundness(self) -> int:
        """The measured boundness (max extension cost over samples)."""
        return self.report.boundness

    @property
    def state_product(self) -> int:
        """The Theorem 2.1 bound ``k_t * k_r``."""
        return self.exploration.state_product


def verify_theorem21(
    pair_factory: Callable[[], Tuple[SenderStation, ReceiverStation]],
    message: Hashable = "m",
    boundness_kwargs: Optional[dict] = None,
    exploration_kwargs: Optional[dict] = None,
) -> Theorem21Verdict:
    """Measure boundness and compare it to the station state product.

    The exploration enumerates the station states reachable without a
    forged delivery, under a set-abstraction of the channels (see
    :mod:`repro.ioa.exploration`).  Theorem 2.1's pigeonhole ranges
    over station pairs along ``alpha . send_msg(m) . beta`` up to the
    pending message's delivery, where ``rm <= sm`` always holds, so
    every pair it counts lies in that region.  The abstraction
    over-approximates reachability, so an exhaustive search's
    ``state_product`` is an upper bound on the true ``k_t * k_r`` --
    the safe direction for checking the theorem's inequality.  A
    truncated search gives no such bound, and its verdict does not
    hold.

    ``exploration_kwargs`` sets the message and configuration budgets;
    the forgery-free region is not optional here.
    """
    report = measure_boundness(
        pair_factory, message=message, **(boundness_kwargs or {})
    )
    sender, receiver = pair_factory()
    exploration = explore_station_states(
        sender, receiver, [message], forgery_free=True,
        **(exploration_kwargs or {})
    )
    return Theorem21Verdict(
        report=report,
        exploration=exploration,
        holds=(not exploration.truncated
               and report.boundness <= exploration.state_product),
    )


def check_mf_bounded_sample(
    system: DataLinkSystem,
    f: Callable[[int], int],
    message: Hashable = "m",
    max_steps: int = 50_000,
) -> bool:
    """Check Definition 5 at the system's current configuration.

    Computes the extension of ``alpha . send_msg(message)`` and tests
    ``sp^{t->r}(beta) <= f(sm(alpha))``.  A single False is a
    counterexample to ``M_f``-boundness; True everywhere only supports
    it.
    """
    sm_alpha = system.execution.sm()
    extension = find_extension(system, message=message, max_steps=max_steps)
    if not extension.delivered:
        return False
    return extension.sp_t2r <= f(sm_alpha)


def check_pf_bounded_sample(
    system: DataLinkSystem,
    f: Callable[[int], int],
    message: Hashable = "m",
    max_steps: int = 50_000,
) -> bool:
    """Check Definition 6 at the system's current configuration.

    Tests ``sp^{t->r}(beta) <= f(sp(alpha) - rp(alpha))`` where the
    argument is the number of packets in transit on the forward
    channel.
    """
    in_transit = system.chan_t2r.transit_size()
    extension = find_extension(system, message=message, max_steps=max_steps)
    if not extension.delivered:
        return False
    return extension.sp_t2r <= f(in_transit)
