"""Common scaffolding for the experiment harness.

Every experiment module exposes ``run(fast=False, seed=0) ->
ExperimentResult``.  A result carries the rendered tables (the
rows/series the corresponding theorem predicts), free-form notes, and a
dictionary of named *shape checks* -- the assertions that say whether
the reproduction matches the paper's qualitative claims (who wins, what
grows, where the crossover falls).  The test suite and the EXPERIMENTS
transcript both consume these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.tables import Table


def resolve_trial_engine(
    sinks: Any = None, pumping: bool = False
) -> Tuple[str, Optional[str]]:
    """The trial-engine tier one protocol run executes under, and why.

    Returns ``(tier, refusal)``: asks the batch gate the run will meet
    -- :func:`repro.core.trials.pump_batch_refusal` when ``pumping``
    (Theorem 4.1 planting, always in COUNTS mode), else
    :func:`repro.core.trials.probabilistic_batch_refusal` for a
    Theorem 5.1 delivery run with ``sinks`` attached -- and names the
    tier that runs: ``"batch"`` when the gate accepts,
    ``"interpreted"`` plus the gate's refusal string when it does not.
    Callers pass the tier to :mod:`repro.core` explicitly, so a
    prediction the gate disagrees with raises instead of mislabelling
    the metrics.  The tiers are bit-identical, so the choice affects
    speed only; callers record both halves in their metrics.
    """
    from repro.channels.probabilistic import TricklePolicy
    from repro.core import trials
    from repro.ioa.execution import TraceMode

    if pumping:
        refusal = trials.pump_batch_refusal(TraceMode.COUNTS)
    else:
        refusal = trials.probabilistic_batch_refusal(
            TricklePolicy.NEVER, TraceMode.COUNTS, sinks
        )
    return ("batch", None) if refusal is None else ("interpreted", refusal)


def engine_metrics(
    resolved: Dict[str, Tuple[str, Optional[str]]]
) -> Dict[str, str]:
    """Metrics naming the tier each labelled run took.

    ``resolved`` maps a run label to its :func:`resolve_trial_engine`
    pair.  One run records ``{"engine": tier}``, several record
    ``"label=tier"`` joined by commas; any gate refusal is added under
    ``"engine_refusal"`` in the same shape.
    """
    def joined(values: Dict[str, str]) -> str:
        if len(resolved) == 1:
            return next(iter(values.values()))
        return ",".join(f"{label}={value}" for label, value in values.items())

    metrics = {
        "engine": joined(
            {label: tier for label, (tier, _) in resolved.items()}
        )
    }
    refusals = {
        label: refusal
        for label, (_, refusal) in resolved.items()
        if refusal is not None
    }
    if refusals:
        metrics["engine_refusal"] = joined(refusals)
    return metrics


def run_sharded(module: Any, fast: bool, seed: int) -> "ExperimentResult":
    """Run a sharded experiment module in-process, shard by shard.

    The same decomposition and :func:`~repro.runtime.seeds.derive_seed`
    inputs as the parallel runtime, so ``module.run(...)`` delegating
    here is bit-identical to a run through the task engine.  This is
    the one implementation behind the ``run()`` of every sharded
    module (E3/E4/E5).
    """
    from repro.runtime.seeds import derive_seed

    payloads = [
        module.run_shard(
            params, fast, derive_seed(seed, module.NAME, params["shard"])
        )
        for params in module.shards(fast)
    ]
    return module.merge(payloads, fast, seed)


@dataclass
class ExperimentResult:
    """Outcome of one experiment run.

    Attributes:
        exp_id: the DESIGN.md experiment id (E1..E6).
        title: one-line description.
        tables: rendered result tables.
        notes: free-form commentary lines (fits, caveats).
        checks: named boolean shape assertions; all True means the
            paper's qualitative claim reproduced.
        metrics: flat numeric operational telemetry (engine steps,
            packet counts/rates, peak copies outstanding ...), typically
            aggregated from per-run
            :class:`~repro.ioa.sinks.MetricsSink` snapshots.
            Observability only -- never part of the shape checks, and
            omitted from the rendered report.
    """

    exp_id: str
    title: str
    tables: List[Table] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    checks: Dict[str, bool] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """All shape checks hold."""
        return all(self.checks.values())

    def render(self) -> str:
        """Human-readable report."""
        parts = [f"== {self.exp_id}: {self.title} =="]
        for table in self.tables:
            parts.append(table.render())
            parts.append("")
        for note in self.notes:
            parts.append(f"note: {note}")
        parts.append("checks:")
        for name, ok in self.checks.items():
            parts.append(f"  [{'PASS' if ok else 'FAIL'}] {name}")
        parts.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form; exact round trip via :meth:`from_dict`.

        Key and list orders are preserved, so two results are
        byte-identical under ``json.dumps`` iff they are equal.
        """
        data: Dict[str, Any] = {
            "exp_id": self.exp_id,
            "title": self.title,
            "tables": [table.to_dict() for table in self.tables],
            "notes": list(self.notes),
            "checks": dict(self.checks),
        }
        # Emitted only when present, so results without telemetry
        # serialise byte-identically to the pre-metrics format (cached
        # result dicts from older runs stay comparable).
        if self.metrics:
            data["metrics"] = dict(self.metrics)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            exp_id=data["exp_id"],
            title=data["title"],
            tables=[
                Table.from_dict(table) for table in data.get("tables", [])
            ],
            notes=[str(note) for note in data.get("notes", [])],
            checks={
                str(name): bool(ok)
                for name, ok in data.get("checks", {}).items()
            },
            metrics=dict(data.get("metrics", {})),
        )
