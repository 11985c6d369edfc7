#!/usr/bin/env python
"""Forecast-driven provisioning planning, end to end.

The paper's deliverable is not a forecast — it is a *decision*: "what
resource capacity do I need?". This example walks the planner subsystem
over a small synthetic estate:

1. build per-instance forecast demands (one hot instance climbing
   through its threshold, one comfortable, two lightly-loaded replicas
   sharing a rack);
2. enumerate and score the candidate blueprints for the hot instance,
   showing the composite trade-off between breach probability, cost and
   over-provisioning;
3. plan the estate exactly (`plan_estate`: the best blueprint per
   instance, or per rack when consolidating beats the members apart)
   and print the plan — including the rack pair consolidating onto one
   box;
4. replay a breaching poll stream through `StreamRuntime` with
   `planning=True`, showing a sustained forecast breach escalating into
   a `PlanProposal` on the alert channel.

Everything is seeded and clock-free: re-running prints identical bytes.

Run:  python examples/planning_demo.py
"""

import numpy as np

from repro.agent import AgentSample
from repro.planner import (
    DEFAULT_CATALOG,
    ForecastBand,
    InstanceDemand,
    enumerate_blueprints,
    plan_estate,
    rank_blueprints,
)
from repro.selection import AutoConfig
from repro.service import EstatePlanner
from repro.stream import StreamConfig, StreamRuntime

SMALL = DEFAULT_CATALOG[0]
HORIZON = 24


def band(level, slope=0.0, spread=2.0):
    steps = np.arange(HORIZON, dtype=float)
    mean = level + slope * steps + 1.5 * np.sin(steps / 4.0)
    return ForecastBand(mean=mean, upper=mean + spread)


def demand(instance, level, slope=0.0, group=None):
    return InstanceDemand(
        instance=instance,
        tier=SMALL,
        bands={"cpu": band(level, slope)},
        capacities={"cpu": 26.0},
        group=group,
    )


# ---------------------------------------------------------------- estate
estate = [
    demand("oltp-primary", level=24.0, slope=0.4),  # climbing through 26
    demand("olap-reporting", level=14.0),  # comfortable where it is
    demand("batch-a", level=4.0, group="rack7"),  # two idle rack-mates
    demand("batch-b", level=5.0, group="rack7"),
]

print("=== Candidate blueprints for the hot instance ===")
candidates = enumerate_blueprints("oltp-primary", SMALL)
for blueprint, score in rank_blueprints(candidates, [estate[0]]):
    print(f"  {blueprint.describe():42s} {score.describe()}")

print()
print("=== Estate plan (exact, one argmin per block) ===")
plan = plan_estate(estate)
for line in plan.describe_lines():
    print(f"  {line}")

# ------------------------------------------------------- live escalation
print()
print("=== Alert → plan escalation in the streaming runtime ===")
STEP = 900.0
samples = [
    AgentSample(
        instance="oltp-primary",
        metric="cpu",
        timestamp=i * STEP,
        value=30.0 + 0.02 * i,  # observed load already past the threshold
    )
    for i in range(48 * 4)
]

runtime = StreamRuntime(
    planner=EstatePlanner(config=AutoConfig(technique="hes", n_jobs=1)),
    config=StreamConfig(
        thresholds={"cpu": 26.0},
        jitter_seconds=0.0,
        duplicate_rate=0.0,
        min_observations=24,
        seed=7,
        planning=True,
        plan_sustained_ticks=2,
    ),
)
runtime.run(samples)
runtime.finish()

for proposal in runtime.proposals:
    print(f"  {proposal.describe()}")
for line in runtime.summary_lines():
    if line.startswith("plans:"):
        print(f"  {line}")
