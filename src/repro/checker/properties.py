"""The property layer of the bounded checker.

A :class:`Property` turns the sharded state-space exploration
(:mod:`repro.ioa.exploration_parallel`) into a query: instead of only
counting station states, every newly discovered abstract configuration
is tested against a predicate.  Two kinds exist:

* **invariants** -- predicates expected to hold on *every* reachable
  configuration; a configuration where the predicate fails is a
  violation and the path to it is the counterexample;
* **reachability** targets -- predicates describing a *bad*
  configuration the checker should hunt for (the Theorem 3.1 forgery
  condition is the canonical one); finding one refutes the property.

Internally both reduce to the same question -- "is a *hit* (bad)
configuration reachable?" -- so a property contributes exactly one
thing: a shard-local batch scanner over packed configurations.

Evaluation happens **shard-locally over the interned representation**:
:meth:`Property.bind` is called once per shard with a
:class:`BindContext` wrapping that shard's intern tables, and returns a
``scan(batch) -> hits`` callable invoked at every level barrier with
the shard's newly adopted frontier (a list of packed configuration
ints).  Stock properties exploit the interning to make scans nearly
free: well-formedness is a function of the *ids* appearing in a
configuration, so :class:`TypeOkProperty` classifies each state/value
id once (watermark over the append-only tables) and the common
everything-well-formed level scan is a single emptiness test.  Custom
properties can instead override :meth:`Property.evaluate`, which
receives a decoded :class:`ConfigView` -- slower, but independent of
the packing details.

Stock registry
--------------

``type-ok``
    Invariant: stations and channels stay inside the model's
    vocabulary -- every channel value is a well-formed
    :class:`~repro.channels.packets.Packet` (hashable, non-``None``
    header) and the station protocol-state keys have the base-class
    shape.
``header-bound=N``
    Invariant: at most ``N`` distinct packet values per channel
    direction -- the header-alphabet bound of the paper (a protocol
    with ``h``-bit headers can put at most ``2^h`` distinct values in
    flight).  The naive sequence protocol violates any fixed bound
    once enough messages flow; the alternating-bit protocol satisfies
    ``N >= 2`` forever.
``dl1-forgery``
    Reachability: a configuration whose receiver has delivered more
    messages than the environment injected -- the Theorem 3.1 (DL1)
    forgery condition.  Requires delivered-count tracking
    (``needs_delivered``); the checker packs a saturating delivered
    counter into the configuration when this property is active.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Set, Tuple

from repro.channels.packets import Packet
from repro.ioa.exploration import (
    _FIELD_MASK,
    _S_DEL,
    _S_INJ,
    _S_R2T,
    _S_RID,
    _S_T2R,
)

__all__ = [
    "BindContext",
    "ConfigView",
    "Dl1ForgeryProperty",
    "HeaderBoundProperty",
    "Property",
    "STOCK_PROPERTIES",
    "TypeOkProperty",
    "make_property",
]


@dataclass(frozen=True)
class ConfigView:
    """One abstract configuration, decoded for property evaluation.

    Attributes:
        sender_state: the sender's ``protocol_state()`` key.
        receiver_state: the receiver's ``protocol_state()`` key.
        t2r_values: packet values ever sent on the forward channel
            along this path (the set-abstraction channel content).
        r2t_values: same for the reverse channel.
        injected: ``send_msg`` inputs along the path.
        delivered: ``receive_msg`` outputs along the path, saturated at
            the checker's cap; ``None`` unless the active property
            declared ``needs_delivered``.
    """

    sender_state: Hashable
    receiver_state: Hashable
    t2r_values: Tuple[Hashable, ...]
    r2t_values: Tuple[Hashable, ...]
    injected: int
    delivered: Optional[int]


class BindContext:
    """Per-shard evaluation context handed to :meth:`Property.bind`.

    Wraps one shard's interned search so scanners can resolve packed
    ids to station keys, packet values and value-set members.
    """

    def __init__(self, search: Any, max_messages: int,
                 alphabet: List[Hashable], del_cap: int) -> None:
        self.search = search
        self.max_messages = max_messages
        self.alphabet = alphabet
        #: 0 when delivered counts are not tracked, else the saturation
        #: cap (``max_messages + 1`` suffices to witness a forgery).
        self.del_cap = del_cap

    def view(self, cfg: int) -> ConfigView:
        """Decode one packed configuration."""
        s = self.search
        values = s.values
        return ConfigView(
            sender_state=s.sender_keys[cfg & _FIELD_MASK],
            receiver_state=s.receiver_keys[(cfg >> _S_RID) & _FIELD_MASK],
            t2r_values=tuple(
                values[m]
                for m in s.set_members[(cfg >> _S_T2R) & _FIELD_MASK]
            ),
            r2t_values=tuple(
                values[m]
                for m in s.set_members[(cfg >> _S_R2T) & _FIELD_MASK]
            ),
            injected=(cfg >> _S_INJ) & _FIELD_MASK,
            delivered=(cfg >> _S_DEL) if self.del_cap else None,
        )


class Property:
    """Base class for checker properties.

    Subclasses set :attr:`name` and :attr:`kind` and either override
    :meth:`bind` (fast: scan packed ints directly against the intern
    tables) or just :meth:`evaluate` (portable: receives a decoded
    :class:`ConfigView`).  ``evaluate``/the scanner decide *hits*: a
    hit is a **bad** configuration -- an invariant violation or a
    reachability target -- and any reachable hit makes the verdict
    ``violated``.

    Properties are shipped to shard worker processes, so instances
    must be picklable (plain attributes only).
    """

    #: registry name; parametric properties render ``name=param``.
    name: str = "property"
    #: ``"invariant"`` or ``"reachability"`` (reporting only -- the
    #: search treats both as hit-hunting).
    kind: str = "invariant"
    #: True when the predicate reads the delivered count; the checker
    #: then packs a saturating delivered field into configurations.
    needs_delivered: bool = False
    #: default ``--system`` for the CLI (``None``: the CLI default).
    default_system: Optional[str] = None

    def spec(self) -> str:
        """Canonical ``name[=param]`` spec string (cache-key material)."""
        return self.name

    def bind(self, ctx: BindContext) -> Callable[[List[int]], List[int]]:
        """Compile the property against one shard's intern tables.

        Returns ``scan(batch) -> hits``: called with each newly
        adopted frontier (packed ints, each exactly once per search),
        returns the hit configurations in batch order.
        """
        evaluate = self.evaluate
        view = ctx.view
        return lambda batch: [cfg for cfg in batch if evaluate(view(cfg))]

    def evaluate(self, view: ConfigView) -> bool:
        """Is this configuration a hit (violation/target)?"""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human description."""
        return (self.__doc__ or self.name).strip().splitlines()[0]


class TypeOkProperty(Property):
    """Invariant: every reachable configuration is well-formed.

    ``TypeOK`` in the TLA+ sense, instantiated for the station-pair
    model: channel values are :class:`~repro.channels.packets.Packet`
    instances with hashable, non-``None`` headers; the sender key has
    the base-class ``(current_packet, fields)`` shape with a packet
    (or ``None``) in transmission position; the receiver key has the
    ``(deliveries, outgoing, fields)`` shape with packets in its
    outgoing queue.  Stations built on the
    :mod:`repro.datalink.stations` base classes satisfy this by
    construction; hand-rolled automata that leak raw payloads onto a
    channel violate it.
    """

    name = "type-ok"
    kind = "invariant"

    @staticmethod
    def _packet_ok(value: Any) -> bool:
        if not isinstance(value, Packet) or value.header is None:
            return False
        try:
            hash(value)
        except TypeError:
            return False
        return True

    @staticmethod
    def _sender_key_ok(key: Any) -> bool:
        if not isinstance(key, tuple) or len(key) != 2:
            return False
        current, fields = key
        if current is not None and not TypeOkProperty._packet_ok(current):
            return False
        return isinstance(fields, tuple)

    @staticmethod
    def _receiver_key_ok(key: Any) -> bool:
        if not isinstance(key, tuple) or len(key) != 3:
            return False
        deliveries, outgoing, fields = key
        if not (isinstance(deliveries, tuple) and isinstance(outgoing, tuple)
                and isinstance(fields, tuple)):
            return False
        return all(TypeOkProperty._packet_ok(p) for p in outgoing)

    def bind(self, ctx: BindContext) -> Callable[[List[int]], List[int]]:
        search = ctx.search
        bad_sids: Set[int] = set()
        bad_rids: Set[int] = set()
        bad_vids: Set[int] = set()
        # Per-set verdict memo: a value set is bad iff it contains a
        # bad value id.  Sets are interned append-only, so the memo is
        # a growing list indexed by set id.
        bad_set: Dict[int, bool] = {}
        watermarks = [0, 0, 0]

        def refresh() -> None:
            """Classify ids interned since the previous scan."""
            sender_keys = search.sender_keys
            while watermarks[0] < len(sender_keys):
                sid = watermarks[0]
                if not self._sender_key_ok(sender_keys[sid]):
                    bad_sids.add(sid)
                watermarks[0] = sid + 1
            receiver_keys = search.receiver_keys
            while watermarks[1] < len(receiver_keys):
                rid = watermarks[1]
                if not self._receiver_key_ok(receiver_keys[rid]):
                    bad_rids.add(rid)
                watermarks[1] = rid + 1
            values = search.values
            while watermarks[2] < len(values):
                vid = watermarks[2]
                if not self._packet_ok(values[vid]):
                    bad_vids.add(vid)
                watermarks[2] = vid + 1

        def set_bad(set_id: int) -> bool:
            verdict = bad_set.get(set_id)
            if verdict is None:
                verdict = any(
                    m in bad_vids for m in search.set_members[set_id]
                )
                bad_set[set_id] = verdict
            return verdict

        m_sid = m_rid = m_set = _FIELD_MASK
        s_rid, s_t2r, s_r2t = _S_RID, _S_T2R, _S_R2T

        def scan(batch: List[int]) -> List[int]:
            refresh()
            if not (bad_sids or bad_rids or bad_vids):
                # Everything ever interned is well-formed: no
                # configuration in this batch can be a hit.
                return []
            hits = []
            for cfg in batch:
                if (
                    (cfg & m_sid) in bad_sids
                    or ((cfg >> s_rid) & m_rid) in bad_rids
                    or (bad_vids and (
                        set_bad((cfg >> s_t2r) & m_set)
                        or set_bad((cfg >> s_r2t) & m_set)
                    ))
                ):
                    hits.append(cfg)
            return hits

        return scan

class HeaderBoundProperty(Property):
    """Invariant: at most ``bound`` distinct packet values per channel.

    The paper measures protocols by their header alphabet; under the
    set-abstraction the forward/reverse value sets are exactly the
    headers a path has put in flight, so ``len(set) <= bound`` is the
    reachable-state reading of an ``h``-bit header budget
    (``bound = 2^h``).  Bounded-header protocols (alternating bit)
    satisfy small bounds forever; the naive sequence protocol grows
    one header per message and violates any fixed bound.
    """

    name = "header-bound"
    kind = "invariant"

    def __init__(self, bound: int = 4) -> None:
        if bound < 1:
            raise ValueError("header-bound needs a bound >= 1")
        self.bound = bound

    def spec(self) -> str:
        return f"{self.name}={self.bound}"

    def bind(self, ctx: BindContext) -> Callable[[List[int]], List[int]]:
        search = ctx.search
        bound = self.bound
        oversized: Set[int] = set()
        watermark = [0]
        m_set, s_t2r, s_r2t = _FIELD_MASK, _S_T2R, _S_R2T

        def scan(batch: List[int]) -> List[int]:
            set_members = search.set_members
            while watermark[0] < len(set_members):
                set_id = watermark[0]
                if len(set_members[set_id]) > bound:
                    oversized.add(set_id)
                watermark[0] = set_id + 1
            if not oversized:
                return []
            return [
                cfg for cfg in batch
                if ((cfg >> s_t2r) & m_set) in oversized
                or ((cfg >> s_r2t) & m_set) in oversized
            ]

        return scan

class Dl1ForgeryProperty(Property):
    """Reachability: the Theorem 3.1 (DL1) forgery condition.

    A configuration whose path delivered more messages than the
    environment injected: some ``receive_msg`` has no matching
    ``send_msg``, i.e. the receiver was made to forge or duplicate a
    delivery -- exactly what the paper's Theorem 3.1 adversary
    (:class:`repro.core.theorem31.HeaderExhaustionAttack`)
    manufactures operationally.  Correct protocols never reach such a
    configuration; :class:`repro.datalink.broken.EagerReceiver` walks
    straight into it.

    The delivered count saturates at ``max_messages + 1``, which is
    sufficient: injections are capped at ``max_messages``, so a true
    excess always survives saturation.
    """

    name = "dl1-forgery"
    kind = "reachability"
    needs_delivered = True
    default_system = "sequence-eager"

    def bind(self, ctx: BindContext) -> Callable[[List[int]], List[int]]:
        s_del, s_inj, m_inj = _S_DEL, _S_INJ, _FIELD_MASK
        return lambda batch: [
            cfg for cfg in batch
            if (cfg >> s_del) > ((cfg >> s_inj) & m_inj)
        ]


STOCK_PROPERTIES: Dict[str, Callable[..., Property]] = {
    TypeOkProperty.name: TypeOkProperty,
    HeaderBoundProperty.name: HeaderBoundProperty,
    Dl1ForgeryProperty.name: Dl1ForgeryProperty,
}


def make_property(spec: str) -> Property:
    """Build a stock property from a ``name[=param]`` spec string."""
    name, _, param = spec.partition("=")
    name = name.strip()
    factory = STOCK_PROPERTIES.get(name)
    if factory is None:
        raise KeyError(
            f"unknown property {name!r}; stock properties: "
            f"{sorted(STOCK_PROPERTIES)}"
        )
    if not param:
        return factory()
    try:
        value = int(param)
    except ValueError as exc:
        raise ValueError(
            f"property parameter must be an integer, got {param!r}"
        ) from exc
    try:
        return factory(value)
    except TypeError as exc:
        raise ValueError(
            f"property {name!r} takes no parameter"
        ) from exc
