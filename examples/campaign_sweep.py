#!/usr/bin/env python3
"""One declarative spec, three cell kinds, no bespoke experiment code.

The campaign layer (repro.campaign) turns an experiment *shape* --
protocol x channel x adversary x parameter grid x metric set -- into
data.  This example builds one spec in code and runs it through the
same seed-sharded task runtime as the E1-E5 experiments:

* an adversary grid: two protocols against two stock adversaries over
  the non-FIFO channel, counting packets per delivered message;
* a delivery sweep: the naive sequence protocol over the probabilistic
  channel pair at three error rates (Theorem 5.1's linear regime);
* an exploration row: the alternating-bit pair's reachable station
  states (k_t, k_r and the Theorem 2.1 product bound).

The identical sweep works from a JSON file:

    python -m repro.experiments campaign examples/campaign_smoke.json

Run:
    python examples/campaign_sweep.py
"""

import json

from repro.campaign import CampaignSpec, CellGroup
from repro.campaign.engine import run_campaign

spec = CampaignSpec(
    name="sweep-demo",
    title="protocol x adversary x channel, one spec",
    groups=[
        CellGroup(
            cell="adversary",
            label="adversary grid",
            channel="nonfifo",
            grid={
                "protocol": ["alternating-bit", "sequence"],
                "adversary": ["optimal", "replay-flood"],
            },
            params={"n": 6},
            metrics=["delivered", "packets", "packets_per_message"],
        ),
        CellGroup(
            cell="delivery",
            label="lossy delivery",
            protocol="sequence",
            template="naive-q={q}",
            grid={"q": [0.1, 0.3, 0.5]},
            params={"n": 12},
            metrics=["delivered", "packets", "completed"],
        ),
        CellGroup(
            cell="exploration",
            label="state spaces",
            template="explore-{protocol}",
            grid={"protocol": ["alternating-bit"]},
            params={"max_messages": 2},
            metrics=["k_t", "k_r", "state_product", "truncated"],
        ),
    ],
    notes=["every cell seeded via derive_seed; reruns are bit-identical"],
)

# The spec is data: it survives a JSON round trip exactly.
assert CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

report = run_campaign(spec, fast=True, seed=0, cache=None)
print(report.result.render())
print()
totals = report.manifest["totals"]
print(
    f"{totals['tasks']} cells in {totals['wall_time']:.2f}s "
    f"(campaign={report.manifest['campaign']['name']})"
)
# Delivery cells record the trial tier that ran; adversary and
# exploration cells run no trial engine.
for task in report.manifest["tasks"]:
    if "engine" in task["metrics"]:
        print(f"  {task['shard']}: engine={task['metrics']['engine']}")
