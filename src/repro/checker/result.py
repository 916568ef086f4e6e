"""The checker's verdict object."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.checker.trace import Counterexample

__all__ = ["CheckResult"]


@dataclass
class CheckResult:
    """Outcome of one :func:`~repro.checker.engine.check_protocol` call.

    Attributes:
        verdict: ``"holds"`` (the bounded space was exhausted with no
            hit), ``"violated"`` (a hit was found; for reachability
            properties this means the target *is* reachable), or
            ``"budget-exhausted"`` (visit budget or intern capacity ran
            out first -- the stats still carry how far the search got).
        property_spec: the checked property's spec string.
        property_kind: ``"invariant"`` or ``"reachability"``.
        counterexample: the reconstructed (and, by default, replayed)
            path to the hit; ``None`` unless ``verdict == "violated"``
            and tracing was enabled.
        stats: search statistics (levels, configurations, intern
            table sizes, engine metadata; partial-progress fields on
            capacity errors).
        options: the bounding options the verdict is relative to.
    """

    verdict: str
    property_spec: str
    property_kind: str
    counterexample: Optional[Counterexample] = None
    stats: Dict[str, Any] = field(default_factory=dict)
    options: Dict[str, Any] = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    @property
    def violated(self) -> bool:
        return self.verdict == "violated"

    @property
    def decided(self) -> bool:
        """True when the bounded question was actually answered."""
        return self.verdict in ("holds", "violated")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly rendering (CLI ``--json``)."""
        payload: Dict[str, Any] = {
            "verdict": self.verdict,
            "property": self.property_spec,
            "kind": self.property_kind,
            "options": dict(self.options),
            "stats": _jsonable(self.stats),
            "counterexample": None,
        }
        cex = self.counterexample
        if cex is not None:
            report = cex.spec_report
            payload["counterexample"] = {
                "length": len(cex.steps),
                "fingerprint": cex.fingerprint(),
                "target_digest": cex.target_digest,
                "steps": [
                    {
                        "kind": None if s.label is None else s.label[0],
                        "value": None if s.label is None
                        else repr(s.label[1]),
                    }
                    for s in cex.steps
                ],
                "concrete": cex.concrete,
                "notes": list(cex.notes),
                "spec": None if report is None else {
                    "ok": report.ok,
                    "valid": report.valid,
                    "pending_messages": report.pending_messages,
                    "violations": [
                        {
                            "property": v.property_name,
                            "event": v.event_index,
                            "description": v.description,
                        }
                        for v in report.violations
                    ],
                },
            }
        return payload


def _jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)
