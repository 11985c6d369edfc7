"""Provisioning planner throughput.

The planner's operational promise is that estate-wide re-planning is
cheap enough to run on every trigger, not on a quarterly spreadsheet
cycle: blueprint enumeration is bounded per instance, scoring is a few
vectorised band operations, and the exact plan takes one argmin per
instance or co-location group. This bench pins numbers on that promise:
full estate plans per second at 100 and 1 000 instances (mixed
calm/breaching demands plus consolidation groups), the headline CI
tracks.

Results are printed as a paper-style table and written machine-readable
to ``benchmarks/output/BENCH_planner.json`` for CI trend tracking. Set
``REPRO_REDUCED_GRID=1`` (the CI smoke mode) for a seconds-scale run.
"""

import json
import os
import time

import numpy as np

from repro.planner import DEFAULT_CATALOG, ForecastBand, InstanceDemand, plan_estate
from repro.reporting import Table

from .conftest import output_path

REDUCED = os.environ.get("REPRO_REDUCED_GRID", "") not in ("", "0")

BENCH_JSON = "BENCH_planner.json"

HORIZON = 24
REPEATS = 3 if REDUCED else 10


def _write_bench_json(section: str, payload: dict) -> None:
    path = output_path(BENCH_JSON)
    data = {}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    data[section] = payload
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _estate(n: int, seed: int = 0) -> list[InstanceDemand]:
    """A seeded synthetic estate: ~1/3 breaching, ~1/4 grouped in racks."""
    rng = np.random.default_rng(seed)
    steps = np.arange(HORIZON, dtype=float)
    demands = []
    for i in range(n):
        base = 8.0 + 18.0 * rng.random()
        if i % 3 == 0:  # breaching: forecast climbs through the threshold
            base = 24.0 + 12.0 * rng.random()
        mean = base + 2.0 * np.sin(steps / 4.0 + i) + 0.1 * steps * (i % 3 == 0)
        group = f"rack{i // 8:03d}" if i % 4 == 0 else None
        demands.append(
            InstanceDemand(
                instance=f"db{i:04d}",
                tier=DEFAULT_CATALOG[0],
                bands={"cpu": ForecastBand(mean=mean, upper=mean + 3.0)},
                capacities={"cpu": 26.0},
                group=group,
            )
        )
    return demands


def _time_plan(demands, repeats=REPEATS):
    best = float("inf")
    plan = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        plan = plan_estate(demands)
        best = min(best, time.perf_counter() - t0)
    return plan, best


def test_planner_scaling():
    table = Table(
        ["Instances", "Choices", "Seconds/plan", "Plans/s", "Instances/s"],
        title="Estate planning throughput",
    )
    payload = {"reduced": REDUCED, "repeats": REPEATS}
    for n in (100, 1000):
        demands = _estate(n)
        plan, elapsed = _time_plan(demands)
        covered = sum(len(c.blueprint.instances) for c in plan.choices)
        assert covered == n  # every instance planned exactly once
        plans_per_second = 1.0 / elapsed
        table.add_row(
            [
                str(n),
                str(len(plan.choices)),
                f"{elapsed:.3f}",
                f"{plans_per_second:,.1f}",
                f"{n / elapsed:,.0f}",
            ]
        )
        payload[f"plans_per_second_{n}"] = plans_per_second
        payload[f"instances_per_second_{n}"] = n / elapsed
        payload[f"wall_seconds_{n}"] = elapsed
    print()
    table.print()
    _write_bench_json("planner_scaling", payload)
    # Re-planning an estate must stay interactive, even on CI boxes: at
    # most 5 s for a 1 000-instance plan.
    assert payload["plans_per_second_100"] > 1.0
    assert payload["plans_per_second_1000"] > 0.2
