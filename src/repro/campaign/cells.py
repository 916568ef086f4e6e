"""Execution of one declarative campaign cell.

:func:`run_cell` is the worker-side body behind ``kind == "cell"``
tasks (:data:`repro.runtime.task.KIND_CELL`): it takes the compiled,
self-contained cell parameters (registry names, the grid point, the
metric list), runs the named scenario, and returns a JSON-able payload

.. code-block:: python

    {"shard": ..., "group": ..., "point": {...},
     "values": {metric: value, ...},      # the spec's metric set
     "metrics": {...}}                    # observability telemetry

Four cell kinds:

* ``delivery`` -- :func:`repro.core.theorem51.run_probabilistic_delivery`
  over the probabilistic channel pair, on the batch trial engine when
  its gate accepts and the interpreted reference otherwise
  (:func:`repro.experiments.base.resolve_trial_engine`);
* ``adversary`` -- a :class:`~repro.datalink.system.DataLinkSystem`
  run with registry-built channels and adversary, in ``COUNTS`` trace
  mode (the fast-path kernel: counters, no event materialisation);
* ``exploration`` -- :func:`repro.ioa.exploration.explore_station_states`;
* ``backlog`` -- Theorem 4.1 backlog planting
  (:func:`repro.core.theorem41.probe_backlog_cost`, or the full
  dichotomy via :func:`repro.core.theorem41.run_dichotomy` when the
  cell sets ``dichotomy``), on the batch pumping engine under the same
  resolution.

Delivery and backlog cells record the tier that ran (and, when the
gate refused the batch tier, its refusal) in their telemetry.

Determinism: everything random flows from the cell's task seed (already
derived per shard via :func:`repro.runtime.seeds.derive_seed`); the
tiers are bit-identical, so the one that ran never changes a value.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.campaign.spec import (
    CELL_ADVERSARY,
    CELL_BACKLOG,
    CELL_DELIVERY,
    CELL_EXPLORATION,
    split_cell_params,
)


def _delivery_observations(
    params: Dict[str, Any], fast: bool, seed: int
) -> Dict[str, Any]:
    from repro.core.theorem51 import run_probabilistic_delivery
    from repro.experiments.base import engine_metrics, resolve_trial_engine
    from repro.campaign import registry

    scenario, dotted = split_cell_params(params["config"])
    factory = registry.protocol_factory(
        params["protocol"], dotted.get("protocol")
    )
    q = float(scenario["q"])
    n = int(scenario["n"])
    tier, refusal = resolve_trial_engine()
    run = run_probabilistic_delivery(
        factory,
        q=q,
        n=n,
        seed=seed,
        max_steps=int(scenario.get("max_steps", 2_000_000)),
        packet_budget=scenario.get("packet_budget"),
        engine=tier,
    )
    return {
        "q": q,
        "n": n,
        "delivered": run.delivered,
        "packets_total": run.total_packets,
        "steps": run.steps,
        "completed": run.delivered >= n,
        "events_elided": run.events_elided,
        **engine_metrics({"delivery": (tier, refusal)}),
    }


def _backlog_observations(
    params: Dict[str, Any], fast: bool, seed: int
) -> Dict[str, Any]:
    from repro.core.theorem41 import probe_backlog_cost, run_dichotomy
    from repro.experiments.base import engine_metrics, resolve_trial_engine
    from repro.campaign import registry

    del fast, seed  # backlog planting is deterministic (zero coins)
    scenario, dotted = split_cell_params(params["config"])
    factory = registry.protocol_factory(
        params["protocol"], dotted.get("protocol")
    )
    backlog = int(scenario["backlog"])
    message = scenario.get("message", "m")
    max_messages = int(scenario.get("max_messages", 4096))
    max_steps = int(scenario.get("max_steps", 200_000))
    tier, refusal = resolve_trial_engine(pumping=True)
    observations: Dict[str, Any]
    if scenario.get("dichotomy"):
        outcome = run_dichotomy(
            factory,
            backlog,
            message=message,
            max_messages=max_messages,
            max_steps=max_steps,
            engine=tier,
        )
        probe = outcome.probe
        observations = {
            "exceeded_bound": outcome.exceeded_bound,
            "forged": outcome.forged,
            "theorem_confirmed": outcome.theorem_confirmed,
        }
    else:
        probe = probe_backlog_cost(
            factory,
            backlog,
            message=message,
            max_messages=max_messages,
            max_steps=max_steps,
            engine=tier,
        )
        observations = {}
    observations.update(
        backlog=backlog,
        backlog_actual=probe.backlog_actual,
        headers=probe.headers,
        extension_packets=probe.extension_packets,
        lower_bound=probe.lower_bound,
        ratio=probe.ratio,
        messages_spent=probe.messages_spent,
        **engine_metrics({"backlog": (tier, refusal)}),
    )
    return observations


def _adversary_observations(
    params: Dict[str, Any], fast: bool, seed: int
) -> Dict[str, Any]:
    from repro.datalink.system import DataLinkSystem
    from repro.ioa.actions import Direction
    from repro.ioa.execution import TraceMode
    from repro.campaign import registry

    scenario, dotted = split_cell_params(params["config"])
    sender, receiver = registry.make_protocol(
        params["protocol"], dotted.get("protocol")
    )
    channel_name = params["channel"] or "nonfifo"
    adversary_name = params["adversary"] or "optimal"
    system = DataLinkSystem(
        sender,
        receiver,
        chan_t2r=registry.make_channel(
            channel_name, Direction.T2R, dotted.get("channel"), seed=seed
        ),
        chan_r2t=registry.make_channel(
            channel_name, Direction.R2T, dotted.get("channel"), seed=seed
        ),
        adversary=registry.make_adversary(
            adversary_name, dotted.get("adversary"), seed=seed
        ),
        sender_burst=int(scenario.get("sender_burst", 1)),
        trace_mode=TraceMode.COUNTS,
    )
    n = int(scenario["n"])
    stats = system.run(
        [f"m{i}" for i in range(n)],
        max_steps=int(scenario.get("max_steps", 10_000)),
    )
    return {
        "submitted": stats.submitted,
        "delivered": stats.delivered,
        "steps": stats.steps,
        "packets_t2r": stats.packets_t2r,
        "packets_r2t": stats.packets_r2t,
        "packets_total": stats.packets_total,
        "completed": stats.completed,
    }


def _exploration_observations(
    params: Dict[str, Any], fast: bool, seed: int
) -> Dict[str, Any]:
    from repro.ioa.actions import Direction
    from repro.ioa.exploration import explore_station_states
    from repro.campaign import registry

    scenario, dotted = split_cell_params(params["config"])
    sender, receiver = registry.make_protocol(
        params["protocol"], dotted.get("protocol")
    )
    exploration = explore_station_states(
        sender,
        receiver,
        list(scenario.get("alphabet", ["m"])),
        max_messages=int(scenario.get("max_messages", 2)),
        max_configurations=int(scenario.get("max_configurations", 20_000)),
    )
    headers = {
        packet.header for packet in exploration.packet_values[Direction.T2R]
    }
    return {
        "k_t": exploration.k_t,
        "k_r": exploration.k_r,
        "state_product": exploration.state_product,
        "configurations": exploration.configurations,
        "truncated": exploration.truncated,
        "wire_headers": len(headers),
    }


def run_cell(
    params: Dict[str, Any], fast: bool, seed: int
) -> Dict[str, Any]:
    """Run one compiled campaign cell; returns its JSON payload.

    ``params`` is the self-contained dict minted by
    :func:`repro.campaign.compiler.compile_campaign` (registry names +
    config + metric list), ``seed`` the cell's derived task seed.
    """
    from repro.campaign import registry

    cell = params["cell"]
    if cell == CELL_DELIVERY:
        observations = _delivery_observations(params, fast, seed)
    elif cell == CELL_BACKLOG:
        observations = _backlog_observations(params, fast, seed)
    elif cell == CELL_ADVERSARY:
        observations = _adversary_observations(params, fast, seed)
    elif cell == CELL_EXPLORATION:
        observations = _exploration_observations(params, fast, seed)
    else:
        raise ValueError(f"unknown campaign cell kind {cell!r}")

    values: Dict[str, Any] = {}
    for metric in params["metrics"]:
        extractor = registry.METRICS.get(metric)
        if extractor is None or not extractor.supports(cell):
            raise KeyError(
                f"metric {metric!r} is not available for {cell!r} cells"
            )
        values[metric] = extractor.extract(observations)

    telemetry: Dict[str, Any] = {}
    for key in ("engine", "engine_refusal", "packets_total", "steps",
                "configurations", "events_elided", "messages_spent"):
        if key in observations:
            telemetry[key] = observations[key]
    return {
        "shard": params["shard"],
        "group": params["group"],
        "point": dict(params["point"]),
        "values": values,
        "metrics": telemetry,
    }
