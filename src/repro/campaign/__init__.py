"""Declarative campaign layer: one spec that sweeps any grid.

The paper's experiments share one shape -- run a protocol over a
channel under an adversary, sweep a parameter, record a metric.  This
package makes that shape *data*:

* :mod:`repro.campaign.spec` -- the :class:`CampaignSpec` model (exact
  JSON round trip);
* :mod:`repro.campaign.registry` -- name registries for protocols,
  channels, adversaries and metric extractors (completeness-guarded);
* :mod:`repro.campaign.compiler` -- spec -> seed-sharded runtime
  tasks, with ``derive_seed`` per cell;
* :mod:`repro.campaign.cells` -- worker-side execution of one cell;
* :mod:`repro.campaign.merge` / :mod:`repro.campaign.engine` -- cell
  payloads -> :class:`~repro.experiments.base.ExperimentResult`, and
  the one-call :func:`run_campaign`;
* :mod:`repro.campaign.cli` -- ``python -m repro.experiments campaign
  SPEC.json`` and ``... list``.

This ``__init__`` re-exports the data model eagerly (leaf imports
only) and the heavier entry points lazily via module ``__getattr__``,
so ``import repro.campaign`` inside a worker does not drag the
experiment modules in.
"""

from __future__ import annotations

from typing import Any

from repro.campaign.spec import (
    CELL_ADVERSARY,
    CELL_DELIVERY,
    CELL_EXPERIMENT,
    CELL_EXPLORATION,
    CELL_KINDS,
    CampaignSpec,
    CellGroup,
    SpecError,
)

__all__ = [
    "CELL_ADVERSARY",
    "CELL_DELIVERY",
    "CELL_EXPERIMENT",
    "CELL_EXPLORATION",
    "CELL_KINDS",
    "CampaignReport",
    "CampaignSpec",
    "CellGroup",
    "SpecError",
    "compile_campaign",
    "load_spec",
    "merge_campaign",
    "run_campaign",
]

_LAZY = {
    "compile_campaign": ("repro.campaign.compiler", "compile_campaign"),
    "load_spec": ("repro.campaign.compiler", "load_spec"),
    "merge_campaign": ("repro.campaign.merge", "merge_campaign"),
    "run_campaign": ("repro.campaign.engine", "run_campaign"),
    "CampaignReport": ("repro.campaign.engine", "CampaignReport"),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
