"""Counterexample traces and their concrete replay.

The checker's search runs over the set-abstraction of the channels
(:mod:`repro.ioa.exploration`): a channel is the set of packet values
ever sent into it, and "deliver v" is enabled whenever ``v`` is in the
set.  A reconstructed counterexample path is therefore *abstract* --- a
sequence of moves over that abstraction.  :func:`replay_counterexample`
re-executes it through the faithful engine
(:class:`~repro.datalink.system.DataLinkSystem` with ``TraceMode.FULL``,
i.e. the ``FullTraceSink`` pipeline), producing a concrete
:class:`~repro.ioa.execution.Execution` the spec checkers
(:func:`~repro.datalink.spec.check_execution`) can judge.

The abstraction gap is duplicate delivery: sets never forget, so the
abstract path may deliver a value of which no physical copy remains in
transit.  The replay bridges it exactly the way the paper's adversary
does -- by exploiting state-preserving retransmission.  When a
``deliver v`` step finds no copy of ``v`` on the forward channel, the
sender is asked to retransmit: if its current offer is ``v`` and
committing provably leaves its protocol state unchanged (checked on a
clone), a fresh *real* copy is sent first.  Every delivered copy is
thus backed by a genuine ``send_pkt``, so the replayed execution is
honest: a DL1 violation it exhibits is a property of the protocol, not
an artifact of the reconstruction.  When the gap cannot be bridged
(e.g. a duplicated ack the receiver will not re-emit unprompted) the
replay reports ``concrete=False`` with a note instead of faking
events.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Hashable, List, Optional, Tuple

from repro.datalink.spec import SpecReport, check_execution
from repro.datalink.system import DataLinkSystem
from repro.ioa.actions import Direction

__all__ = ["Counterexample", "TraceStep", "replay_counterexample"]


@dataclass(frozen=True)
class TraceStep:
    """One move of an abstract counterexample path.

    Attributes:
        label: ``None`` for the initial configuration, else a
            ``(kind, value)`` pair -- ``("inject", message)``,
            ``("output", packet)``, ``("deliver", packet)`` or
            ``("ack", packet)``.
        portable: the configuration *reached* by the move, as the
            engine's six-field portable tuple ``(sender key, receiver
            key, t->r values, r->t values, injected, delivered)``.
    """

    label: Optional[Tuple[str, Hashable]]
    portable: Tuple


def _canonical_step(step: TraceStep) -> Tuple:
    """Order-free form of a step.

    Channel-set orderings depend on the order in which values were
    interned; everything else is content.  Two traces of the same
    abstract path canonicalise identically.
    """
    skey, rkey, t2r, r2t, injected, delivered = step.portable
    return (
        step.label,
        skey,
        rkey,
        tuple(sorted(t2r, key=repr)),
        tuple(sorted(r2t, key=repr)),
        injected,
        delivered,
    )


@dataclass
class Counterexample:
    """A reconstructed path to a property hit, optionally replayed.

    Attributes:
        steps: the path, seed first; ``steps[-1]`` is the hit.
        target_digest: content digest of the hit configuration.
        execution: the concrete execution produced by
            :func:`replay_counterexample` (``None`` until replayed).
        spec_report: spec verdicts over that execution.
        concrete: True when the replay re-executed every abstract move
            with real events and landed exactly on the hit
            configuration.
        notes: human-readable replay annotations (retransmissions
            manufactured, gaps hit, mismatches found).
    """

    steps: List[TraceStep]
    target_digest: int
    execution: Any = None
    spec_report: Optional[SpecReport] = None
    concrete: bool = False
    notes: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)

    def fingerprint(self) -> str:
        """Content hash of the abstract path; identical across trace
        modes and processes.

        Hashed over ``repr`` rather than ``pickle``: pickle's memo
        encodes object *identity* (an interned value appearing twice
        serialises differently from two equal copies of it), which
        varies with how a portable's values were interned.  ``repr``
        of these values -- packets, tuples, strings, ints -- is pure
        content.
        """
        canon = tuple(_canonical_step(step) for step in self.steps)
        return hashlib.sha256(repr(canon).encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Multi-line rendering for CLI output."""
        lines = []
        for index, step in enumerate(self.steps):
            if step.label is None:
                lines.append(f"  {index:3d}. (initial configuration)")
            else:
                kind, value = step.label
                lines.append(f"  {index:3d}. {kind} {value!r}")
        return "\n".join(lines)


def replay_counterexample(
    counterexample: Counterexample,
    sender,
    receiver,
    delivered_cap: int = 0,
) -> Counterexample:
    """Re-execute an abstract path through the faithful engine.

    Args:
        counterexample: the path to replay; mutated in place
            (``execution``, ``spec_report``, ``concrete``, ``notes``).
        sender: pristine sender station (cloned, not touched).
        receiver: pristine receiver station (cloned, not touched).
        delivered_cap: the search's delivered-counter saturation cap;
            ``0`` when the counter was not tracked.  Needed to decide
            whether the final delivered count must match exactly or
            only reach the cap.

    Returns:
        The same ``counterexample``, filled in.
    """
    notes = counterexample.notes
    notes.clear()
    system = DataLinkSystem(sender.clone(), receiver.clone())
    concrete = True

    for index, step in enumerate(counterexample.steps):
        if step.label is None:
            continue  # the seed
        kind, value = step.label
        if kind == "inject":
            system.submit_message(value)
        elif kind == "output":
            offered = system.sender.offer_packet()
            if offered != value:
                notes.append(
                    f"step {index}: sender offers {offered!r}, "
                    f"path expects output {value!r}"
                )
                concrete = False
                break
            system.pump_sender(1)
        elif kind == "deliver":
            if not _ensure_forward_copy(system, value, index, notes):
                concrete = False
                break
            copy = system.chan_t2r.copies_of(value)[0]
            system.deliver_copy(Direction.T2R, copy.copy_id)
            # Flush deliveries/acks exactly as the abstraction does.
            system.pump_receiver()
        elif kind == "ack":
            copies = system.chan_r2t.copies_of(value)
            if not copies:
                notes.append(
                    f"step {index}: no copy of ack {value!r} in transit "
                    "and the receiver cannot be polled to re-emit one"
                )
                concrete = False
                break
            system.deliver_copy(Direction.R2T, copies[0].copy_id)
        else:
            notes.append(f"step {index}: unknown move kind {kind!r}")
            concrete = False
            break

    if concrete:
        concrete = _verify_final(
            system, counterexample.steps[-1].portable, delivered_cap, notes
        )

    counterexample.execution = system.execution
    counterexample.spec_report = check_execution(system.execution)
    counterexample.concrete = concrete
    return counterexample


def _ensure_forward_copy(system: DataLinkSystem, value, index: int,
                         notes: List[str]) -> bool:
    """Make sure a copy of ``value`` is in forward transit.

    No copy left means the abstract set remembered a value whose only
    physical copies were already consumed; the adversary's counterpart
    is to let the retransmission timer fire.  That is only sound when
    the sender would actually re-send ``value`` *and* committing the
    retransmission leaves its protocol state untouched -- both checked
    here (the state-preservation probe runs on a clone).
    """
    if system.chan_t2r.copies_of(value):
        return True
    offered = system.sender.offer_packet()
    if offered != value:
        notes.append(
            f"step {index}: no copy of {value!r} in transit and the "
            f"sender offers {offered!r} instead of retransmitting it"
        )
        return False
    probe = system.sender.clone()
    state_before = probe.protocol_state()
    probe.commit_packet(value)
    if probe.protocol_state() != state_before \
            or probe.offer_packet() != value:
        notes.append(
            f"step {index}: retransmitting {value!r} would change the "
            "sender's protocol state; duplicate delivery is not "
            "replayable here"
        )
        return False
    system.pump_sender(1)
    notes.append(f"step {index}: retransmitted {value!r} for duplicate "
                 "delivery")
    return True


def _verify_final(system: DataLinkSystem, target: Tuple,
                  delivered_cap: int, notes: List[str]) -> bool:
    """The replayed system must land exactly on the hit configuration."""
    skey, rkey, t2r, r2t, injected, delivered = target
    ok = True
    if system.sender.protocol_state() != skey:
        notes.append("final sender state differs from the hit configuration")
        ok = False
    if system.receiver.protocol_state() != rkey:
        notes.append(
            "final receiver state differs from the hit configuration"
        )
        ok = False
    execution = system.execution
    if execution.distinct_packets(Direction.T2R) != set(t2r):
        notes.append("forward-channel value set differs from the hit")
        ok = False
    if execution.distinct_packets(Direction.R2T) != set(r2t):
        notes.append("reverse-channel value set differs from the hit")
        ok = False
    if execution.sm() != injected:
        notes.append(
            f"injected {execution.sm()} messages, hit records {injected}"
        )
        ok = False
    if delivered_cap:
        actual = system.receiver.messages_delivered
        if delivered == delivered_cap:
            if actual < delivered:
                notes.append(
                    f"delivered {actual} messages, hit records at least "
                    f"{delivered} (saturated counter)"
                )
                ok = False
        elif actual != delivered:
            notes.append(
                f"delivered {actual} messages, hit records {delivered}"
            )
            ok = False
    return ok
