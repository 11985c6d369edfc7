"""Candidate provisioning blueprints: shapes, tiers and enumeration.

The paper's migration use case asks for "the correct shape (in terms of
CPU, Memory and Storage) of cloud resource"; brad's blueprint planner
(SNIPPETS.md) shows the productive framing — enumerate a bounded set of
candidate *blueprints* per instance, then let a forecast-aware scorer
pick. A blueprint here is one provisioning decision: stay put, scale the
instance up a tier, scale it out across replicas, consolidate co-located
instances onto one box, or migrate to a different target shape. Every
blueprint is a frozen value with an explicit shape and unit cost, so
plans built from them are comparable, hashable and byte-reproducible.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..exceptions import DataError

__all__ = [
    "ResourceShape",
    "CatalogTier",
    "BlueprintKind",
    "Blueprint",
    "DEFAULT_CATALOG",
    "metric_dimension",
    "tier_named",
    "enumerate_blueprints",
    "enumerate_consolidations",
]

#: The shape dimensions, in canonical order.
DIMENSIONS = ("cpu", "memory_gb", "storage_gb")


@dataclass(frozen=True, order=True)
class ResourceShape:
    """One provisioned box: CPU cores, memory and storage."""

    cpu: float
    memory_gb: float
    storage_gb: float

    def amount(self, dimension: str) -> float:
        if dimension not in DIMENSIONS:
            raise DataError(f"unknown shape dimension {dimension!r}; use one of {DIMENSIONS}")
        return float(getattr(self, dimension))

    def dominates(self, other: "ResourceShape") -> bool:
        """Every dimension at least as large, at least one strictly larger."""
        at_least = all(self.amount(d) >= other.amount(d) for d in DIMENSIONS)
        return at_least and any(self.amount(d) > other.amount(d) for d in DIMENSIONS)


@dataclass(frozen=True, order=True)
class CatalogTier:
    """A purchasable instance tier: a named shape with an hourly price."""

    name: str
    shape: ResourceShape
    hourly_cost: float


#: A doubling ladder of tiers, so a scale-up can always clear a breach
#: the current tier cannot. Prices scale linearly with the shape — the
#: scorer's cost term, not the catalog, encodes any volume discount.
DEFAULT_CATALOG: tuple[CatalogTier, ...] = (
    CatalogTier("t-small", ResourceShape(2.0, 16.0, 256.0), 0.34),
    CatalogTier("t-medium", ResourceShape(4.0, 32.0, 512.0), 0.68),
    CatalogTier("t-large", ResourceShape(8.0, 64.0, 1024.0), 1.36),
    CatalogTier("t-xlarge", ResourceShape(16.0, 128.0, 2048.0), 2.72),
    CatalogTier("t-2xlarge", ResourceShape(32.0, 256.0, 4096.0), 5.44),
)


def tier_named(name: str, catalog: Sequence[CatalogTier] = DEFAULT_CATALOG) -> CatalogTier:
    """Catalog lookup by tier name."""
    for tier in catalog:
        if tier.name == name:
            return tier
    raise DataError(
        f"unknown catalog tier {name!r}; available: {[t.name for t in catalog]}"
    )


def metric_dimension(metric: str) -> str:
    """Which shape dimension a monitored metric consumes.

    Word-level matching on the metric name: memory-ish tokens map to
    ``memory_gb``, storage/IO-ish tokens to ``storage_gb``, everything
    else (cpu, sessions, throughput...) to ``cpu`` — the paper's worked
    examples are CPU-bound, so compute is the conservative default.
    """
    for token in re.split(r"[^a-z]+", metric.lower()):
        if token in ("mem", "memory", "ram", "heap", "sga", "pga"):
            return "memory_gb"
        if token in ("storage", "disk", "iops", "io", "space", "tablespace", "logical"):
            return "storage_gb"
    return "cpu"


class BlueprintKind(enum.Enum):
    """What kind of provisioning move a blueprint is."""

    STAY = "stay"
    SCALE_UP = "scale-up"
    SCALE_OUT = "scale-out"
    CONSOLIDATE = "consolidate"
    MIGRATE = "migrate"


@dataclass(frozen=True)
class Blueprint:
    """One candidate provisioning decision for one or more instances.

    ``instances`` is the covered set — a single instance for every kind
    except CONSOLIDATE, which couples a whole co-location group onto one
    (replicated) box. ``replicas`` multiplies both capacity and cost.
    """

    kind: BlueprintKind
    instances: tuple[str, ...]
    tier: CatalogTier
    replicas: int = 1

    @property
    def shape(self) -> ResourceShape:
        return self.tier.shape

    @property
    def hourly_cost(self) -> float:
        return self.tier.hourly_cost * self.replicas

    def capacity(self, dimension: str) -> float:
        """Total provisioned amount of one dimension across replicas."""
        return self.tier.shape.amount(dimension) * self.replicas

    def slug(self) -> str:
        """Stable identity string — the planner's deterministic tie-break key."""
        return (
            f"{self.kind.value}:{'+'.join(self.instances)}"
            f":{self.tier.name}x{self.replicas}"
        )

    def describe(self) -> str:
        target = f"{self.tier.name} x{self.replicas}" if self.replicas > 1 else self.tier.name
        if self.kind is BlueprintKind.CONSOLIDATE:
            return f"consolidate {', '.join(self.instances)} onto {target}"
        return f"{self.kind.value} {self.instances[0]} to {target}"


def enumerate_blueprints(
    instance: str,
    current_tier: CatalogTier,
    catalog: Sequence[CatalogTier] = DEFAULT_CATALOG,
    replicas: int = 1,
    max_replicas: int = 3,
) -> tuple[Blueprint, ...]:
    """Every candidate move for one instance, in deterministic order.

    STAY first, then one SCALE_UP per strictly-dominating tier, one
    MIGRATE per non-dominating other tier (the downsize / reshape
    targets), then SCALE_OUT at the current tier for each replica count
    up to ``max_replicas``. The candidate count is bounded by
    ``len(catalog) + max_replicas - replicas`` — enumeration stays O(1)
    per instance regardless of estate size.
    """
    if replicas < 1:
        raise DataError(f"replicas must be >= 1, got {replicas}")
    if max_replicas < replicas:
        raise DataError(
            f"max_replicas ({max_replicas}) cannot be below current replicas ({replicas})"
        )
    key = (instance,)
    out = [Blueprint(BlueprintKind.STAY, key, current_tier, replicas)]
    for tier in catalog:
        if tier == current_tier:
            continue
        kind = (
            BlueprintKind.SCALE_UP
            if tier.shape.dominates(current_tier.shape)
            else BlueprintKind.MIGRATE
        )
        out.append(Blueprint(kind, key, tier, replicas))
    for n in range(replicas + 1, max_replicas + 1):
        out.append(Blueprint(BlueprintKind.SCALE_OUT, key, current_tier, n))
    return tuple(out)


def enumerate_consolidations(
    instances: Iterable[str],
    catalog: Sequence[CatalogTier] = DEFAULT_CATALOG,
    max_replicas: int = 3,
) -> tuple[Blueprint, ...]:
    """Candidate consolidations of a co-location group onto one tier.

    Empty for groups of fewer than two instances — consolidating one
    instance is just a migrate. The covered set is sorted so the same
    group always yields byte-identical blueprints.
    """
    group = tuple(sorted(set(instances)))
    if len(group) < 2:
        return ()
    out = []
    for tier in catalog:
        for n in range(1, max_replicas + 1):
            out.append(Blueprint(BlueprintKind.CONSOLIDATE, group, tier, n))
    return tuple(out)
