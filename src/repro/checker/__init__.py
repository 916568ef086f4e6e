"""repro.checker -- a bounded model checker over the level-synchronous
BFS driver of :mod:`repro.ioa.exploration_parallel`.

Public surface:

* :func:`~repro.checker.engine.check_protocol` -- run one property
  against one station pair under the paper's bounding discipline.
* :class:`~repro.checker.properties.Property` and the stock property
  registry (``type-ok``, ``header-bound=N``, ``dl1-forgery``).
* :class:`~repro.checker.result.CheckResult` and
  :class:`~repro.checker.trace.Counterexample`.

See ``docs/CHECKER.md`` for the property API, the bounding discipline
and the disk-backed visited-set mode.
"""

from repro.checker.engine import check_protocol
from repro.checker.properties import (
    STOCK_PROPERTIES,
    BindContext,
    ConfigView,
    Dl1ForgeryProperty,
    HeaderBoundProperty,
    Property,
    TypeOkProperty,
    make_property,
)
from repro.checker.result import CheckResult
from repro.checker.store import DiskVisitedStore, LevelLog
from repro.checker.trace import Counterexample, TraceStep, replay_counterexample

__all__ = [
    "BindContext",
    "CheckResult",
    "ConfigView",
    "Counterexample",
    "DiskVisitedStore",
    "Dl1ForgeryProperty",
    "HeaderBoundProperty",
    "LevelLog",
    "Property",
    "STOCK_PROPERTIES",
    "TraceStep",
    "TypeOkProperty",
    "check_protocol",
    "make_property",
    "replay_counterexample",
]
