"""Exact estate planning: the argmin of each block of the plan.

Per-instance choices compose — an estate plan is one blueprint per
instance — except consolidation, which couples every instance of a
co-location group into a single choice. A plan's composite is a plain
sum over its blocks, a block being one instance or one consolidated
group, and no block constrains another. The exact optimum is therefore
the argmin of each block on its own: every instance takes its best
blueprint, and a group of two or more takes its best consolidation only
when that scores strictly below the sum of its members' own bests.

Determinism: inside a block, ties break on ``(composite, slug)``
(:func:`~repro.planner.scoring.rank_blueprints`), and choices are
emitted in sorted instance order with a consolidation at its group's
first member. No hash is involved, so plans are byte-identical across
runs, processes, ``PYTHONHASHSEED`` values, demand order and shard
counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from ..exceptions import DataError
from .blueprint import (
    DEFAULT_CATALOG,
    Blueprint,
    CatalogTier,
    enumerate_blueprints,
    enumerate_consolidations,
)
from .scoring import BlueprintScore, InstanceDemand, ScoreWeights, rank_blueprints

__all__ = ["PlanChoice", "EstatePlan", "plan_estate"]


@dataclass(frozen=True)
class PlanChoice:
    """One chosen blueprint within an estate plan, with its score."""

    blueprint: Blueprint
    score: BlueprintScore

    def describe(self) -> str:
        return f"{self.blueprint.describe()} — {self.score.describe()}"


@dataclass(frozen=True)
class EstatePlan:
    """A full estate provisioning plan: one choice per covered instance set."""

    choices: tuple[PlanChoice, ...]
    total_hourly_cost: float
    total_composite: float
    breach_probability: float

    def describe_lines(self) -> list[str]:
        lines = [
            f"estate plan: {len(self.choices)} choices, "
            f"${self.total_hourly_cost:.2f}/h, residual p(breach) "
            f"{self.breach_probability:.1%}"
        ]
        lines.extend(f"  {choice.describe()}" for choice in self.choices)
        return lines

    def to_payload(self) -> dict:
        return {
            "total_hourly_cost": self.total_hourly_cost,
            "total_composite": self.total_composite,
            "breach_probability": self.breach_probability,
            "choices": [
                {
                    "kind": c.blueprint.kind.value,
                    "instances": list(c.blueprint.instances),
                    "tier": c.blueprint.tier.name,
                    "replicas": c.blueprint.replicas,
                    "hourly_cost": c.blueprint.hourly_cost,
                    "breach_probability": c.score.breach_probability,
                    "expected_headroom": c.score.expected_headroom,
                    "overprovision": c.score.overprovision,
                    "composite": c.score.composite,
                }
                for c in self.choices
            ],
        }

    def to_json(self) -> str:
        """Canonical JSON — the byte-reproducibility surface."""
        return json.dumps(self.to_payload(), indent=2, sort_keys=True)


def plan_estate(
    demands: Sequence[InstanceDemand],
    catalog: Sequence[CatalogTier] = DEFAULT_CATALOG,
    weights: ScoreWeights = ScoreWeights(),
    max_replicas: int = 3,
) -> EstatePlan:
    """Return the estate plan with the lowest total composite score.

    ``demands`` may arrive in any order (shard fan-in merges them
    unsorted); they are planned in sorted instance order. Instances
    sharing a ``group`` label additionally offer CONSOLIDATE candidates
    covering the whole group at once; on an exact tie with the members'
    separate choices, the members stay separate.
    """
    if not demands:
        raise DataError("plan_estate needs at least one instance demand")
    ordered = sorted(demands, key=lambda d: d.instance)
    if len({d.instance for d in ordered}) != len(ordered):
        raise DataError("duplicate instance in demands")

    # Blocks keyed by their first covered instance: sorted keys give the
    # emission order, with a consolidation at its group's first member.
    blocks: dict[str, PlanChoice] = {}
    groups: dict[str, list[InstanceDemand]] = {}
    for demand in ordered:
        candidates = enumerate_blueprints(
            demand.instance,
            demand.tier,
            catalog,
            replicas=demand.replicas,
            max_replicas=max_replicas,
        )
        blocks[demand.instance] = PlanChoice(*rank_blueprints(candidates, [demand], weights)[0])
        if demand.group is not None:
            groups.setdefault(demand.group, []).append(demand)

    for members in groups.values():
        if len(members) < 2:
            continue
        names = tuple(m.instance for m in members)
        consolidations = enumerate_consolidations(names, catalog, max_replicas=max_replicas)
        best = PlanChoice(*rank_blueprints(consolidations, members, weights)[0])
        if best.score.composite < sum(blocks[name].score.composite for name in names):
            for name in names:
                del blocks[name]
            blocks[names[0]] = best

    choices = tuple(blocks[name] for name in sorted(blocks))
    composite = cost = 0.0
    survival = 1.0
    for choice in choices:
        composite += choice.score.composite
        cost += choice.blueprint.hourly_cost
        survival *= 1.0 - choice.score.breach_probability
    return EstatePlan(
        choices=choices,
        total_hourly_cost=cost,
        total_composite=composite,
        breach_probability=1.0 - survival,
    )
