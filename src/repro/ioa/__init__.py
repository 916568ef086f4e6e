"""Lynch-Tuttle style I/O automaton substrate.

The paper models data link protocols as pairs of I/O automata
(``A^t`` at the transmitting station, ``A^r`` at the receiving station)
composed with two physical channels.  This package provides the pieces
of that model that every other layer of the reproduction builds on:

* :mod:`repro.ioa.actions` -- the action vocabulary of the model
  (``send_msg``, ``receive_msg``, ``send_pkt``, ``receive_pkt``).
* :mod:`repro.ioa.automaton` -- the deterministic I/O automaton base
  class with state snapshot/restore support.
* :mod:`repro.ioa.execution` -- recorded executions (Definition 1 of the
  paper) with the counting functions of Definition 2 and the packet
  correspondence needed to check (PL1)/(DL1).
* :mod:`repro.ioa.sinks` -- the observer-sink pipeline behind
  ``Execution``: the counters, the trace materialiser, operational
  telemetry, and the ``ExecutionSink`` protocol for custom observers.
* :mod:`repro.ioa.composition` -- the generic [LT87] composition
  operator (output-to-input wiring, nesting, fair scheduling).
* :mod:`repro.ioa.exploration` -- reachable-state enumeration used by
  the Theorem 2.1 boundness analysis.
* :mod:`repro.ioa.exploration_parallel` -- the one level-synchronous
  BFS driver (sharded, checkpointing) behind exploration and the
  checker.
"""

from repro.ioa.actions import (
    Action,
    ActionType,
    Direction,
    receive_msg,
    receive_pkt,
    send_msg,
    send_pkt,
)
from repro.ioa.automaton import IOAutomaton
from repro.ioa.composition import Composition, Wire
from repro.ioa.execution import Event, Execution, TraceElidedError, TraceMode
from repro.ioa.exploration import ExplorationResult, explore_station_states
from repro.ioa.exploration_parallel import explore_station_states_parallel
from repro.ioa.sinks import (
    CountsSink,
    ExecutionSink,
    FullTraceSink,
    MetricsSink,
)

__all__ = [
    "Action",
    "ActionType",
    "Composition",
    "CountsSink",
    "Wire",
    "Direction",
    "Event",
    "Execution",
    "ExecutionSink",
    "ExplorationResult",
    "FullTraceSink",
    "IOAutomaton",
    "MetricsSink",
    "TraceElidedError",
    "TraceMode",
    "explore_station_states",
    "explore_station_states_parallel",
    "receive_msg",
    "receive_pkt",
    "send_msg",
    "send_pkt",
]
