"""Data link layer: specification, station APIs, engine and protocols.

The data link layer (Section 2.2 of the paper) turns two unreliable
physical channels into one reliable FIFO message pipe, satisfying:

* (DL1) no forged or duplicated deliveries;
* (DL2) FIFO delivery order;
* (DL3) every sent message is eventually delivered.

This package contains:

* :mod:`repro.datalink.spec` -- (DL1)/(DL2)/(DL3) and (PL1) as
  machine-checkable predicates, checked online by a sink on a live run
  or over a recorded execution;
* :mod:`repro.datalink.stations` -- the sender/receiver station
  automaton API protocols implement;
* :mod:`repro.datalink.system` -- the composition/simulation engine;
* the protocol zoo: :mod:`repro.datalink.sequence` (the paper's naive
  unbounded-header protocol), :mod:`repro.datalink.alternating_bit`
  ([BSW69]), and :mod:`repro.datalink.flooding` (the fixed-header
  counting protocol standing in for [AFWZ88]/[Afe88]).
"""

from repro.datalink.alternating_bit import (
    AlternatingBitReceiver,
    AlternatingBitSender,
    make_alternating_bit,
)
from repro.datalink.flooding import (
    FloodingReceiver,
    FloodingSender,
    make_capacity_flooding,
    make_flooding,
)
from repro.datalink.gobackn import (
    GoBackNReceiver,
    GoBackNSender,
    make_gobackn,
)
from repro.datalink.sequence import (
    SequenceReceiver,
    SequenceSender,
    make_sequence_protocol,
)
from repro.datalink.sequence_mod import (
    ModularSequenceReceiver,
    ModularSequenceSender,
    make_modular_sequence,
)
from repro.datalink.window import (
    WindowReceiver,
    WindowSender,
    make_window_protocol,
)
from repro.datalink.spec import (
    SpecReport,
    SpecSink,
    SpecViolated,
    SpecViolation,
    check_dl1,
    check_dl1_dl2,
    check_liveness,
    check_pl1,
    check_execution,
)
from repro.datalink.stations import ReceiverStation, SenderStation
from repro.datalink.system import DataLinkSystem, DeliveryStats, make_system

__all__ = [
    "AlternatingBitReceiver",
    "AlternatingBitSender",
    "ModularSequenceReceiver",
    "ModularSequenceSender",
    "WindowReceiver",
    "WindowSender",
    "make_modular_sequence",
    "make_window_protocol",
    "DataLinkSystem",
    "DeliveryStats",
    "FloodingReceiver",
    "FloodingSender",
    "GoBackNReceiver",
    "GoBackNSender",
    "make_gobackn",
    "ReceiverStation",
    "SenderStation",
    "SequenceReceiver",
    "SequenceSender",
    "SpecReport",
    "SpecSink",
    "SpecViolated",
    "SpecViolation",
    "check_dl1",
    "check_dl1_dl2",
    "check_execution",
    "check_liveness",
    "check_pl1",
    "make_alternating_bit",
    "make_capacity_flooding",
    "make_flooding",
    "make_sequence_protocol",
    "make_system",
]
