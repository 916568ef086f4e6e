"""Fixed-header counting/flooding protocols.

The matching upper bounds the paper cites -- the bounded-header
protocol of [AFWZ88] and its improvement by [Afe88] (three headers,
``P_f``-bounded for a linear ``f``) -- exist only as a manuscript and a
personal communication; their full descriptions are not available.
This module implements the *counting protocol* family that preserves
the properties the paper measures (see DESIGN.md, "Documented
substitutions"):

* a **fixed** header alphabet: ``K`` data phases plus ``K`` ack phases
  (``2K`` headers; ``K = 3`` by default, mirroring [Afe88]'s three);
* **unbounded local counters** -- which Theorem 3.1 proves any
  bounded-header protocol must have;
* per-message packet cost ``Theta(backlog)`` -- the tight shape of
  Theorem 4.1;
* exponential total cost over a probabilistic channel -- the tight
  shape of Theorem 5.1.

How it works.  Message ``i`` travels in packets with header
``(DATA, i mod K)``.  Freshness is certified by *multiplicity
counting*: by (PL1) the channel cannot duplicate, so if the receiver
counts more copies of one packet value than were in transit when it
started waiting, at least one of them is fresh.  Concretely, when the
receiver starts waiting for message ``i`` it fixes a threshold ``T_i``
= number of phase-``(i mod K)`` data copies then in transit, and
accepts the first message body to reach ``T_i + 1`` receipts.  The
sender symmetrically fixes an ack threshold when it starts sending
message ``i`` and treats the ``(threshold + 1)``-th phase ack as
confirmation.  A short induction (spelled out in
``tests/test_flooding_safety.py``) shows a fresh data copy of phase
``i mod K`` can only belong to message ``i`` and a fresh phase ack only
to an acceptance of message ``i``, for any ``K >= 2``.  ``K = 1``
genuinely breaks (duplicates of message ``i-1`` masquerade as message
``i``) -- the E6 ablation demonstrates it.

The thresholds are the substitution: the real [AFWZ88] protocol infers
them with (complicated, unbounded-state) in-band machinery, while here
they are read from a :class:`~repro.channels.base.ChannelOracle`.  The
oracle steps outside the paper's I/O-automaton model -- deliberately,
and the E2 experiment shows what it buys: the Theorem 3.1 forgery,
which must succeed against every in-model fixed-header protocol, is
blocked by the oracle and succeeds again the moment the oracle is
replaced by an assumed capacity bound (:func:`make_capacity_flooding`).

Engine discipline note: thresholds are sampled when ``send_msg``
arrives / a message is accepted.  Sampling is accurate provided station
output queues are flushed into the channels between scheduling rounds,
which :class:`~repro.datalink.system.DataLinkSystem.step` guarantees.
"""

from __future__ import annotations

import sys
from typing import Dict, Hashable, Optional, Tuple

from repro.channels.packets import Packet
from repro.datalink.stations import ReceiverStation, SenderStation
from repro.ioa.actions import Direction

DATA = "DATA"
ACK = "ACK"

ORACLE = "oracle"
CAPACITY = "capacity"

#: The ``silent_copies`` of a packet that ``on_packet`` ignores.
_UNBOUNDED = sys.maxsize


def data_packet(phase: int, message: Hashable) -> Packet:
    """The data packet for the given phase."""
    return Packet(header=(DATA, phase), body=message)


_ACK_PACKETS: Dict[int, Packet] = {}


def ack_packet(phase: int) -> Packet:
    """The phase acknowledgement.

    Interned per phase: packets are frozen values, one ack is queued
    per acceptance on the exploration/simulation hot path, and sharing
    the instance lets identity-based memos downstream short-circuit
    the dataclass hash.
    """
    packet = _ACK_PACKETS.get(phase)
    if packet is None:
        packet = _ACK_PACKETS[phase] = Packet(header=(ACK, phase))
    return packet


class FloodingSender(SenderStation):
    """Floods the current phase's data packet until enough phase acks
    arrive to certify a fresh acceptance.

    Args:
        phases: the phase modulus ``K`` (``2K`` headers total).
        mode: ``"oracle"`` (thresholds read from the channel oracle) or
            ``"capacity"`` (thresholds fixed at ``capacity``).
        capacity: the assumed bound on stale copies, for capacity mode.
    """

    name = "flood.A^t"

    def __init__(
        self, phases: int = 3, mode: str = ORACLE, capacity: int = 0
    ) -> None:
        super().__init__()
        if phases < 1:
            raise ValueError("phase modulus must be at least 1")
        if mode not in (ORACLE, CAPACITY):
            raise ValueError(f"unknown threshold mode {mode!r}")
        self.phases = phases
        self.mode = mode
        self.capacity = capacity
        self.uses_oracle = mode == ORACLE
        self._index = 0
        self._pending: Optional[Hashable] = None
        self._ack_threshold = 0
        self._acks_received = 0

    def fresh(self) -> "FloodingSender":
        return FloodingSender(self.phases, self.mode, self.capacity)

    @property
    def phase(self) -> int:
        """Phase of the message currently (or next) in flight."""
        return self._index % self.phases

    def ready_for_message(self) -> bool:
        return self._pending is None

    def on_send_msg(self, message: Hashable) -> None:
        if self._pending is not None:
            raise RuntimeError(
                "flooding sender already has an unconfirmed message; "
                "the engine must respect ready_for_message()"
            )
        self._pending = message
        self._acks_received = 0
        self._ack_threshold = self._sample_ack_threshold()
        self.current_packet = data_packet(self.phase, message)

    def _sample_ack_threshold(self) -> int:
        if self.mode == CAPACITY:
            return self.capacity
        if self.oracle is None:
            raise RuntimeError(
                "oracle-mode flooding sender used without an attached "
                "channel oracle; compose it via DataLinkSystem"
            )
        return self.oracle.transit_count(Direction.R2T, ack_packet(self.phase))

    def on_packet(self, packet: Packet) -> None:
        kind, phase = packet.header
        if kind != ACK or self._pending is None or phase != self.phase:
            return
        self._acks_received += 1
        if self._acks_received > self._ack_threshold:
            # At least one of the counted acks is fresh, hence sent at
            # or after the receiver's acceptance of this very message.
            self._pending = None
            self.current_packet = None
            self._index += 1

    def silent_copies(self, packet: Packet) -> int:
        # Follows on_packet: a counted ack changes nothing the engine
        # sees until the (threshold + 1)-th confirms the message, and
        # everything else is ignored.
        kind, phase = packet.header
        if kind != ACK or self._pending is None or phase != self.phase:
            return _UNBOUNDED
        return self._ack_threshold - self._acks_received

    def absorb_copies(self, packet: Packet, count: int) -> None:
        if (
            count
            and self._pending is not None
            and packet.header == (ACK, self.phase)
        ):
            self._acks_received += count

    def protocol_fields(self) -> Tuple:
        return (
            self._index,
            self._pending,
            self._ack_threshold,
            self._acks_received,
        )

    def set_protocol_fields(self, fields: Tuple) -> None:
        (
            self._index,
            self._pending,
            self._ack_threshold,
            self._acks_received,
        ) = fields


class FloodingReceiver(ReceiverStation):
    """Accepts the first message body to outnumber the stale copies of
    the awaited phase; acknowledges the accepted phase on every
    duplicate."""

    name = "flood.A^r"

    def __init__(
        self, phases: int = 3, mode: str = ORACLE, capacity: int = 0
    ) -> None:
        super().__init__()
        if phases < 1:
            raise ValueError("phase modulus must be at least 1")
        if mode not in (ORACLE, CAPACITY):
            raise ValueError(f"unknown threshold mode {mode!r}")
        self.phases = phases
        self.mode = mode
        self.capacity = capacity
        self.uses_oracle = mode == ORACLE
        self._awaiting = 0
        # The forward channel is empty when a system is composed, so
        # the initial oracle threshold is zero either way.
        self._data_threshold = capacity if mode == CAPACITY else 0
        self._counts: Dict[Hashable, int] = {}

    def fresh(self) -> "FloodingReceiver":
        return FloodingReceiver(self.phases, self.mode, self.capacity)

    @property
    def awaited_phase(self) -> int:
        """Phase of the message the receiver is waiting for."""
        return self._awaiting % self.phases

    def on_packet(self, packet: Packet) -> None:
        kind, phase = packet.header
        if kind != DATA:
            return
        if phase == self.awaited_phase:
            count = self._counts.get(packet.body, 0) + 1
            self._counts[packet.body] = count
            if count > self._data_threshold:
                # Some copy of this body is fresh, so the body is the
                # awaited message's.
                self._accept(packet.body)
        elif self._awaiting > 0 and phase == (self._awaiting - 1) % self.phases:
            # A duplicate of the message we already accepted: its acks
            # may all have been lost or delayed, so ack again.
            self.queue_packet(ack_packet(phase))

    def silent_copies(self, packet: Packet) -> int:
        # Follows on_packet's branches: awaited-phase copies only count
        # until one outnumbers the threshold, previous-phase copies
        # re-ack, and everything else is ignored.
        kind, phase = packet.header
        if kind != DATA:
            return _UNBOUNDED
        if phase == self.awaited_phase:
            return max(
                0, self._data_threshold - self._counts.get(packet.body, 0)
            )
        if self._awaiting > 0 and phase == (self._awaiting - 1) % self.phases:
            return 0
        return _UNBOUNDED

    def absorb_copies(self, packet: Packet, count: int) -> None:
        if count and packet.header == (DATA, self.awaited_phase):
            body = packet.body
            self._counts[body] = self._counts.get(body, 0) + count

    def echo_packet(self, packet: Packet) -> Optional[Packet]:
        # on_packet's re-ack branch: a copy of the accepted message's
        # phase queues that phase's ack and changes nothing.
        kind, phase = packet.header
        if (
            kind == DATA
            and self._awaiting > 0
            and phase != self.awaited_phase
            and phase == (self._awaiting - 1) % self.phases
        ):
            return ack_packet(phase)
        return None

    def _accept(self, body: Hashable) -> None:
        accepted_phase = self.awaited_phase
        self.queue_delivery(body)
        self.queue_packet(ack_packet(accepted_phase))
        self._awaiting += 1
        self._counts = {}
        self._data_threshold = self._sample_data_threshold()

    def _sample_data_threshold(self) -> int:
        if self.mode == CAPACITY:
            return self.capacity
        if self.oracle is None:
            raise RuntimeError(
                "oracle-mode flooding receiver used without an attached "
                "channel oracle; compose it via DataLinkSystem"
            )
        phase = self.awaited_phase
        return self.oracle.count_matching(
            Direction.T2R, lambda p: p.header == (DATA, phase)
        )

    def protocol_fields(self) -> Tuple:
        counts = self._counts
        if counts:
            # Either sort is a canonical form of the dict (equal dicts
            # give equal tuples); plain tuple comparison is tried first
            # because this runs once per explored receiver transition,
            # and repr-keyed sorting is only needed for bodies of
            # mutually unorderable types.
            try:
                items = tuple(sorted(counts.items()))
            except TypeError:
                items = tuple(sorted(counts.items(), key=repr))
        else:
            items = ()
        return (self._awaiting, self._data_threshold, items)

    def set_protocol_fields(self, fields: Tuple) -> None:
        self._awaiting, self._data_threshold, counts = fields
        self._counts = dict(counts)


def make_flooding(
    phases: int = 3,
) -> Tuple[FloodingSender, FloodingReceiver]:
    """A fresh oracle-mode flooding pair with ``2 * phases`` headers."""
    return (
        FloodingSender(phases, ORACLE),
        FloodingReceiver(phases, ORACLE),
    )


def make_capacity_flooding(
    phases: int = 3, capacity: int = 8
) -> Tuple[FloodingSender, FloodingReceiver]:
    """A flooding pair that *assumes* the channel never holds more than
    ``capacity`` stale copies of any packet value.

    This variant stays inside the paper's model (no oracle), so
    Theorem 3.1 applies to it with full force: the header-exhaustion
    adversary pumps ``capacity + 1`` stale copies and forges a
    delivery.  See experiment E2.
    """
    return (
        FloodingSender(phases, CAPACITY, capacity),
        FloodingReceiver(phases, CAPACITY, capacity),
    )
