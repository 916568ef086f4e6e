"""Reference (DL)/(PL) checkers: four independent trace walks.

These are the original checkers, kept unchanged as an oracle for
:class:`repro.datalink.spec.SpecSink`, which decides the same
properties one event at a time.  Each function walks a recorded
execution's event list once and returns the earliest violation of its
property, or ``None``.  ``check_liveness`` keeps its original
``sm - rm`` reading, which agrees with the sink's unmatched-send count
whenever (DL1) holds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.datalink.spec import SpecViolation
from repro.ioa.actions import ActionType, Direction
from repro.ioa.execution import Execution


def check_pl1(
    execution: Execution,
    direction: Direction,
    initial_transit: Optional[Set[int]] = None,
) -> Optional[SpecViolation]:
    """Check (PL1) on one channel direction.

    Args:
        execution: the recorded execution.
        direction: which channel to check.
        initial_transit: copy ids legitimately in transit before the
            recording started (extensions of earlier executions may
            deliver copies whose sends predate the recording).
    """
    live: Set[int] = set(initial_transit or ())
    value_of: Dict[int, object] = {}
    for event in execution:
        action = event.action
        if action.direction is not direction or action.copy_id is None:
            continue
        if action.type is ActionType.SEND_PKT:
            if action.copy_id in live or action.copy_id in value_of:
                return SpecViolation(
                    "PL1",
                    event.index,
                    f"copy #{action.copy_id} sent twice",
                )
            live.add(action.copy_id)
            value_of[action.copy_id] = action.packet
        elif action.type is ActionType.RECEIVE_PKT:
            if action.copy_id not in live:
                return SpecViolation(
                    "PL1",
                    event.index,
                    f"copy #{action.copy_id} received without a live "
                    "preceding send (forgery or duplication)",
                )
            live.remove(action.copy_id)
            expected = value_of.get(action.copy_id)
            if action.copy_id in value_of and expected != action.packet:
                return SpecViolation(
                    "PL1",
                    event.index,
                    f"copy #{action.copy_id} delivered with value "
                    f"{action.packet!r}, sent as {expected!r} (corruption)",
                )
    return None


def check_dl1(execution: Execution) -> Optional[SpecViolation]:
    """Check (DL1): injective receive->preceding-send correspondence."""
    # Per payload class: indices of unmatched sends seen so far.
    unmatched: Dict[object, List[int]] = {}
    for event in execution:
        action = event.action
        if action.type is ActionType.SEND_MSG:
            unmatched.setdefault(action.message, []).append(event.index)
        elif action.type is ActionType.RECEIVE_MSG:
            candidates = unmatched.get(action.message)
            if not candidates:
                return SpecViolation(
                    "DL1",
                    event.index,
                    f"receive_msg({action.message!r}) has no unmatched "
                    "preceding send_msg (forged or duplicated delivery)",
                )
            candidates.pop(0)
    return None


def check_dl1_dl2(execution: Execution) -> Optional[SpecViolation]:
    """Check (DL1) and (DL2) together: the correspondence must also be
    order-preserving (messages delivered in the order they were sent).
    """
    sends: List = []  # (index, message), in order
    cursor = 0  # sends before cursor are matched or skipped forever
    for event in execution:
        action = event.action
        if action.type is ActionType.SEND_MSG:
            sends.append((event.index, action.message))
        elif action.type is ActionType.RECEIVE_MSG:
            match = None
            for position in range(cursor, len(sends)):
                send_index, message = sends[position]
                if send_index >= event.index:
                    break
                if message == action.message:
                    match = position
                    break
            if match is None:
                return SpecViolation(
                    "DL1/DL2",
                    event.index,
                    f"receive_msg({action.message!r}) cannot be matched "
                    "order-preservingly to a preceding send_msg",
                )
            if match != cursor:
                # An earlier send was skipped over: its message can now
                # never be delivered without breaking FIFO order.  That
                # is already a (DL2)-fatal state for any continuation
                # that delivers it, but not itself a violation; we only
                # advance past it.  Record nothing, keep matching.
                pass
            cursor = match + 1
    return None


def check_liveness(execution: Execution) -> int:
    """Finite-execution (DL3): return the number of pending messages.

    Zero means every ``send_msg`` has a matching ``receive_msg`` --
    i.e. the execution is *valid* (Definition 3) provided the safety
    checkers pass too.  Positive values are not violations by
    themselves (any prefix of a valid execution may have messages in
    flight); run-level tests compare against a progress budget.
    """
    return execution.sm() - execution.rm()


def reference_violations(
    execution: Execution,
    initial_transit_t2r: Optional[Set[int]] = None,
    initial_transit_r2t: Optional[Set[int]] = None,
) -> List[SpecViolation]:
    """Every checker's earliest violation, in ``check_execution``'s
    report order: PL1 t->r, PL1 r->t, DL1, DL1/DL2."""
    found = [
        check_pl1(execution, Direction.T2R, initial_transit_t2r),
        check_pl1(execution, Direction.R2T, initial_transit_r2t),
        check_dl1(execution),
        check_dl1_dl2(execution),
    ]
    return [violation for violation in found if violation is not None]
