"""The function that runs inside worker processes.

:func:`execute` is the single entry point the executor submits to the
process pool.  It takes a *plain dict* (a :meth:`TaskSpec.to_dict`)
and returns a plain dict, so nothing fancier than standard pickling
ever crosses the process boundary, and the same function doubles as
the serial fallback.

Dispatch is by experiment name through the registries in
:mod:`repro.experiments.runner` (imported lazily, inside the worker):

* ``kind == "shard"`` -> the sharded module's
  ``run_shard(params, fast, seed)``;
* ``kind == "whole"`` -> the registered ``run(fast=..., seed=...)``,
  serialized via ``ExperimentResult.to_dict()``;
* ``kind == "cell"`` -> :func:`repro.campaign.cells.run_cell` on the
  task's self-contained cell parameters (declarative campaigns).
"""

from __future__ import annotations

import time
from typing import Any, Dict

from repro.runtime.task import KIND_CELL, KIND_SHARD, KIND_WHOLE


def execute(
    spec_dict: Dict[str, Any],
    engine: Any = None,
) -> Dict[str, Any]:
    """Run one task; returns ``{"payload": ..., "wall_time": ...}``.

    ``engine`` is execution configuration, not task identity: it is
    bound onto this function (``functools.partial``) by the engine
    rather than carried in the spec dict, so it never reaches cache
    keys (all trial engines are bit-identical, so the engine choice
    cannot change a payload).
    ``engine`` reaches only shard modules that declare
    ``ENGINE_AWARE = True`` (via ``run_shard(..., engine=)``) and
    campaign cells; whole experiments ignore it.
    """
    from repro.experiments.runner import REGISTRY, SHARDED

    name = spec_dict["experiment"]
    kind = spec_dict["kind"]
    fast = spec_dict["fast"]
    seed = spec_dict["seed"]
    started = time.perf_counter()
    if kind == KIND_SHARD:
        module = SHARDED.get(name)
        if module is None:
            raise KeyError(f"experiment {name!r} is not sharded")
        if engine is not None and getattr(module, "ENGINE_AWARE", False):
            payload = module.run_shard(
                spec_dict["params"], fast, seed, engine=engine
            )
        else:
            payload = module.run_shard(spec_dict["params"], fast, seed)
    elif kind == KIND_CELL:
        from repro.campaign.cells import run_cell

        # Cells are uniformly engine-aware: the tier choice is resolved
        # inside the cell per kind, exactly as the bespoke experiments
        # resolve it per shard.
        payload = run_cell(
            spec_dict["params"],
            fast,
            seed,
            engine=engine if engine is not None else "auto",
        )
    elif kind == KIND_WHOLE:
        run = REGISTRY.get(name)
        if run is None:
            raise KeyError(f"unknown experiment {name!r}")
        payload = run(fast=fast, seed=seed).to_dict()
    else:
        raise ValueError(f"unknown task kind {kind!r}")
    if not isinstance(payload, dict):
        raise TypeError(
            f"task {name}/{spec_dict['shard']} returned "
            f"{type(payload).__name__}, expected a JSON-able dict"
        )
    return {"payload": payload, "wall_time": time.perf_counter() - started}
