"""Station automaton base classes.

The data link protocol is a pair of I/O automata (Section 2.3):

* ``A^t`` (the sender station) with inputs ``send_msg(m)`` and
  ``receive_pkt^{r->t}(p)`` and output ``send_pkt^{t->r}(p)``;
* ``A^r`` (the receiver station) with input ``receive_pkt^{t->r}(p)``
  and outputs ``send_pkt^{r->t}(p)`` and ``receive_msg(m)``.

These base classes pin down that signature once, translate the generic
:class:`~repro.ioa.automaton.IOAutomaton` interface into protocol-level
hooks (``on_send_msg``, ``on_packet``, ...), and manage the output
discipline:

* the **sender** exposes a single *current packet* which it offers for
  (re)transmission whenever polled -- polling frequency is the engine's
  business, which is how the model abstracts retransmission timers;
* the **receiver** keeps internal FIFO queues of pending deliveries and
  pending control packets; deliveries take priority, so a message is
  handed to the higher layer as soon as the protocol decides to accept
  it.

The plumbing is fixed: a station's behaviour is a function of its
``protocol_state()``, and the exploration and the batch trial engines
restore a station from that key and call its hooks directly.  A
subclass that overrides any of these raises :class:`TypeError` at
class creation:

* on both stations: ``handle_input``, ``next_output``,
  ``perform_output``, ``accept_packet``, ``snapshot``, ``restore`` and
  ``protocol_state``;
* on the sender also ``accept_message``;
* on the receiver also ``pop_delivery``, ``pop_control_packet`` and
  ``has_pending_output``.

A protocol overrides the rest: the ``on_*`` hooks,
``protocol_fields``/``set_protocol_fields`` and ``ready_for_message``;
a sender that does not transmit through ``current_packet`` (Go-Back-N,
the window sender) ``offer_packet``/``commit_packet``; a receiver with
a silent-receipt lookahead ``silent_copies``/``absorb_copies``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Hashable, Optional, Tuple

from repro.channels.base import ChannelOracle
from repro.channels.packets import Packet
from repro.ioa.actions import (
    Action,
    ActionType,
    Direction,
    receive_msg,
    send_pkt,
)
from repro.ioa.automaton import IOAutomaton

#: Sentinel returned by :meth:`ReceiverStation.pop_delivery` when no
#: delivery is pending.  A sentinel rather than ``None`` because
#: ``None`` is a perfectly legal message payload.
NO_OUTPUT = object()

#: Plumbing no station subclass may override (see the module docstring).
_STATION_PLUMBING = (
    "handle_input", "next_output", "perform_output", "accept_packet",
    "snapshot", "restore", "protocol_state",
)
_SENDER_PLUMBING = _STATION_PLUMBING + ("accept_message",)
_RECEIVER_PLUMBING = _STATION_PLUMBING + (
    "pop_delivery", "pop_control_packet", "has_pending_output",
)


def _forbid_overrides(cls: type, base: type, names: Tuple[str, ...]) -> None:
    for name in names:
        if getattr(cls, name) is not getattr(base, name):
            raise TypeError(
                f"{cls.__name__} overrides {base.__name__}.{name}, which "
                "is fixed plumbing; override the protocol hooks instead"
            )


class SenderStation(IOAutomaton):
    """Base class for the transmitting-station automaton ``A^t``.

    Subclasses implement:

    * :meth:`on_send_msg` -- a new message arrived from the higher
      layer;
    * :meth:`on_packet` -- a packet arrived on the ``r->t`` channel;
    * :meth:`ready_for_message` -- whether the environment may submit
      the next message (the engine's submission policy asks this);
    * :meth:`protocol_fields` / :meth:`set_protocol_fields`;

    and drive transmission by assigning :attr:`current_packet`: while
    it is not ``None`` the station offers it on every poll, modelling a
    retransmission timer that fires whenever the scheduler lets it.
    A sender that transmits otherwise overrides :meth:`offer_packet`
    and :meth:`commit_packet`; :meth:`on_packet_sent` is optional.
    Overriding ``handle_input``, ``next_output``, ``perform_output``,
    ``accept_message``, ``accept_packet``, ``snapshot``, ``restore`` or
    ``protocol_state`` raises :class:`TypeError`.

    Attributes:
        uses_oracle: set True by protocols that read the channel oracle
            (and are therefore outside the paper's model; see
            :class:`~repro.channels.base.ChannelOracle`).
        oracle: the oracle, attached by the engine when
            ``uses_oracle`` is True.
    """

    name = "A^t"
    uses_oracle = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        _forbid_overrides(cls, SenderStation, _SENDER_PLUMBING)

    def __init__(self) -> None:
        self.oracle: Optional[ChannelOracle] = None
        self.current_packet: Optional[Packet] = None
        self.packets_sent = 0

    # ------------------------------------------------------------------
    # IOAutomaton plumbing
    # ------------------------------------------------------------------
    def handle_input(self, action: Action) -> None:
        if action.type is ActionType.SEND_MSG:
            self.on_send_msg(action.message)
        elif (
            action.type is ActionType.RECEIVE_PKT
            and action.direction is Direction.R2T
        ):
            self.on_packet(action.packet)
        else:
            raise ValueError(f"sender station got unexpected input {action}")

    def next_output(self) -> Optional[Action]:
        packet = self.offer_packet()
        if packet is None:
            return None
        return send_pkt(Direction.T2R, packet)

    def perform_output(self, action: Action) -> None:
        self.commit_packet(action.packet)

    # ------------------------------------------------------------------
    # engine dispatch interface
    # ------------------------------------------------------------------
    # The engine (DataLinkSystem) talks to stations through these four
    # methods; next_output/perform_output above are reimplemented on top
    # of them so the generic IOAutomaton contract (used by composition)
    # stays intact.

    def offer_packet(self) -> Optional[Packet]:
        """The packet the station would transmit now, or ``None``.

        Offering does not commit: the engine may poll and then decline
        (e.g. when the burst budget is exhausted).
        """
        return self.current_packet

    def commit_packet(self, packet: Packet) -> None:
        """The engine committed one transmission of ``packet``."""
        self.packets_sent += 1
        self.on_packet_sent(packet)

    def accept_message(self, message: Hashable) -> None:
        """A ``send_msg`` input: a message arrived from the higher layer."""
        self.on_send_msg(message)

    def accept_packet(self, packet: Packet) -> None:
        """A ``receive_pkt^{r->t}`` input was delivered to the station."""
        self.on_packet(packet)

    # ------------------------------------------------------------------
    # protocol hooks
    # ------------------------------------------------------------------
    def on_send_msg(self, message: Hashable) -> None:
        """A message arrived from the higher layer."""
        raise NotImplementedError

    def on_packet(self, packet: Packet) -> None:
        """A packet arrived from the receiver station."""
        raise NotImplementedError

    def on_packet_sent(self, packet: Packet) -> None:
        """The engine committed one transmission of ``packet``.

        Default: nothing (the station keeps offering
        :attr:`current_packet` for retransmission).
        """

    def ready_for_message(self) -> bool:
        """May the environment submit the next ``send_msg`` now?

        The data link layer must accept messages at any time (inputs
        are always enabled); this is a *politeness* signal for the
        engine's submission policy, so experiments exercise the
        one-message-at-a-time regime the paper analyses.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------
    def protocol_fields(self) -> Tuple:
        """The protocol's own state, as a hashable tuple.

        Together with :attr:`current_packet` this must determine the
        station's behaviour completely.  Bookkeeping counters do not
        belong here.
        """
        raise NotImplementedError

    def set_protocol_fields(self, fields: Tuple) -> None:
        """Restore the fields captured by :meth:`protocol_fields`."""
        raise NotImplementedError

    def snapshot(self) -> Tuple:
        return (self.current_packet, self.packets_sent,
                self.protocol_fields())

    def restore(self, snap: Tuple) -> None:
        self.current_packet, self.packets_sent, fields = snap
        self.set_protocol_fields(fields)

    def protocol_state(self) -> Tuple:
        return (self.current_packet, self.protocol_fields())


class ReceiverStation(IOAutomaton):
    """Base class for the receiving-station automaton ``A^r``.

    Subclasses implement :meth:`on_packet`, reacting to each packet
    from the ``t->r`` channel by calling :meth:`queue_delivery` (hand a
    message to the higher layer) and/or :meth:`queue_packet` (send a
    control packet back to the sender), and :meth:`protocol_fields` /
    :meth:`set_protocol_fields`.  The base class replays those queues
    as outputs, deliveries first.  :meth:`on_delivered` and the
    silent-receipt lookahead (:meth:`silent_copies` /
    :meth:`absorb_copies`) are optional.  Overriding ``handle_input``,
    ``next_output``, ``perform_output``, ``accept_packet``,
    ``pop_delivery``, ``pop_control_packet``, ``has_pending_output``,
    ``snapshot``, ``restore`` or ``protocol_state`` raises
    :class:`TypeError`.
    """

    name = "A^r"
    uses_oracle = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        _forbid_overrides(cls, ReceiverStation, _RECEIVER_PLUMBING)

    def __init__(self) -> None:
        self.oracle: Optional[ChannelOracle] = None
        self._deliveries: Deque[Hashable] = deque()
        self._outgoing: Deque[Packet] = deque()
        self.messages_delivered = 0

    # ------------------------------------------------------------------
    # IOAutomaton plumbing
    # ------------------------------------------------------------------
    def handle_input(self, action: Action) -> None:
        if (
            action.type is ActionType.RECEIVE_PKT
            and action.direction is Direction.T2R
        ):
            self.on_packet(action.packet)
        else:
            raise ValueError(f"receiver station got unexpected input {action}")

    def next_output(self) -> Optional[Action]:
        if self._deliveries:
            return receive_msg(self._deliveries[0])
        if self._outgoing:
            return send_pkt(Direction.R2T, self._outgoing[0])
        return None

    def perform_output(self, action: Action) -> None:
        if action.type is ActionType.RECEIVE_MSG:
            self.pop_delivery()
        else:
            self.pop_control_packet()

    # ------------------------------------------------------------------
    # engine dispatch interface
    # ------------------------------------------------------------------
    # The engine (DataLinkSystem) talks to stations through these four
    # methods; next_output/perform_output above are reimplemented on top
    # of them so the generic IOAutomaton contract stays intact.

    def pop_delivery(self) -> Hashable:
        """Commit and return the next pending delivery.

        Returns :data:`NO_OUTPUT` when no delivery is pending (``None``
        may be a legal message payload).
        """
        if not self._deliveries:
            return NO_OUTPUT
        message = self._deliveries.popleft()
        self.messages_delivered += 1
        self.on_delivered(message)
        return message

    def pop_control_packet(self) -> Optional[Packet]:
        """Commit and return the next pending control packet, if any."""
        if not self._outgoing:
            return None
        return self._outgoing.popleft()

    def has_pending_output(self) -> bool:
        """Whether any delivery or control packet is pending."""
        return bool(self._deliveries or self._outgoing)

    def accept_packet(self, packet: Packet) -> None:
        """A ``receive_pkt^{t->r}`` input was delivered to the station."""
        self.on_packet(packet)

    # ------------------------------------------------------------------
    # bulk receipt (a lookahead for the batch delivery engine)
    # ------------------------------------------------------------------
    def silent_copies(self, packet: Packet) -> int:
        """How many copies of ``packet``, received back to back from the
        current state, :meth:`on_packet` would absorb without queuing
        any output and without reading the channel oracle.

        The count must be exact: the copy after the last silent one
        queues output.  Default: 0 (no lookahead).
        """
        return 0

    def absorb_copies(self, packet: Packet, count: int) -> None:
        """The state change of ``count`` back-to-back :meth:`on_packet`
        calls, for ``count <= silent_copies(packet)``.

        Default: the calls themselves.  An override must leave the same
        :meth:`protocol_fields` as those calls, and ``count == 0`` must
        change nothing.
        """
        for _ in range(count):
            self.on_packet(packet)

    # ------------------------------------------------------------------
    # protocol hooks
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        """A packet arrived from the sender station."""
        raise NotImplementedError

    def on_delivered(self, message: Hashable) -> None:
        """A queued delivery was committed.  Default: nothing."""

    def queue_delivery(self, message: Hashable) -> None:
        """Schedule ``receive_msg(message)`` (accept the message)."""
        self._deliveries.append(message)

    def queue_packet(self, packet: Packet) -> None:
        """Schedule ``send_pkt^{r->t}(packet)`` (e.g. an ack)."""
        self._outgoing.append(packet)

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------
    def protocol_fields(self) -> Tuple:
        """The protocol's own state, as a hashable tuple.

        Together with the output queues this must determine the
        station's behaviour completely.
        """
        raise NotImplementedError

    def set_protocol_fields(self, fields: Tuple) -> None:
        """Restore the fields captured by :meth:`protocol_fields`."""
        raise NotImplementedError

    def snapshot(self) -> Tuple:
        return (
            tuple(self._deliveries),
            tuple(self._outgoing),
            self.messages_delivered,
            self.protocol_fields(),
        )

    def restore(self, snap: Tuple) -> None:
        deliveries, outgoing, delivered, fields = snap
        self._deliveries = deque(deliveries)
        self._outgoing = deque(outgoing)
        self.messages_delivered = delivered
        self.set_protocol_fields(fields)

    def protocol_state(self) -> Tuple:
        return (
            tuple(self._deliveries),
            tuple(self._outgoing),
            self.protocol_fields(),
        )
