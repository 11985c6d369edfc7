"""Bottom-up hierarchical forecast reconciliation.

The estate is a hierarchy — instances roll up into clusters (co-location
groups, RAC clusters, tenants of one box) and clusters roll up into the
estate — but the models forecast each instance-metric series
independently, so nothing guarantees the levels agree: the sum of the
instance forecasts is the only defensible cluster forecast, and likewise
up to the estate. This module makes that coherence explicit with the
classic *bottom-up* reconciliation: base (instance) forecasts are kept
untouched, and every aggregate level is the exact sum of its members.

Combining bands follows independence: means add, and half-widths (the
distance from mean to the upper quantile, which is ``z * std`` at a
shared ``alpha``) combine as the square root of the sum of squares —
the ``z`` cancels, so no quantile table is needed. Root-sum-square is
associative, which is what makes the pass coherent by construction:
aggregating clusters into the estate gives bit-for-bit the same band as
aggregating the instances directly.

:func:`reconcile` consumes the :class:`~repro.planner.scoring.InstanceDemand`
list that :func:`~repro.planner.scoring.demands_from_entries` produces,
so ``repro plan`` can report estate-consistent peaks next to the
planner's per-instance choices, and an explicit cluster map doubles as
the planner's co-location grouping (clustered demands gain a ``group`` label, which
unlocks CONSOLIDATE candidates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from ..exceptions import DataError
from .scoring import ForecastBand, InstanceDemand

__all__ = [
    "ReconciledLevel",
    "ReconciledEstate",
    "combine_bands",
    "reconcile",
]


def combine_bands(bands: Sequence[ForecastBand]) -> ForecastBand:
    """Aggregate member bands bottom-up: means add, half-widths RSS.

    All members must share ``alpha`` (half-widths are only comparable at
    one quantile); horizons are truncated to the shortest member.
    """
    if not bands:
        raise DataError("combine_bands needs at least one band")
    alphas = {float(b.alpha) for b in bands}
    if len(alphas) > 1:
        raise DataError(f"cannot combine bands at mixed alphas {sorted(alphas)}")
    horizon = min(b.mean.size for b in bands)
    mean = np.sum([b.mean[:horizon] for b in bands], axis=0)
    half_sq = np.sum(
        [np.square(b.upper[:horizon] - b.mean[:horizon]) for b in bands], axis=0
    )
    return ForecastBand(mean=mean, upper=mean + np.sqrt(half_sq), alpha=bands[0].alpha)


@dataclass(frozen=True)
class ReconciledLevel:
    """One aggregate node: a cluster of instances, or the whole estate."""

    name: str
    members: tuple[str, ...]
    bands: dict[str, ForecastBand]

    def peak(self, metric: str) -> tuple[float, float]:
        """(mean peak, upper peak) over the horizon for one metric."""
        band = self.bands[metric]
        finite_mean = band.mean[np.isfinite(band.mean)]
        finite_upper = band.upper[np.isfinite(band.upper)]
        return (
            float(finite_mean.max()) if finite_mean.size else math.nan,
            float(finite_upper.max()) if finite_upper.size else math.nan,
        )

    def describe_lines(self) -> list[str]:
        lines = [f"{self.name}: {len(self.members)} member(s)"]
        for metric in sorted(self.bands):
            mean_peak, upper_peak = self.peak(metric)
            lines.append(
                f"  {metric}: peak mean {mean_peak:.1f}, "
                f"upper({1 - self.bands[metric].alpha:.0%}) {upper_peak:.1f}"
            )
        return lines


@dataclass(frozen=True)
class ReconciledEstate:
    """The full bottom-up pass: base demands plus coherent aggregates."""

    demands: tuple[InstanceDemand, ...]
    clusters: tuple[ReconciledLevel, ...]
    estate: ReconciledLevel

    def coherence_error(self) -> float:
        """Worst absolute gap between the estate mean and the base sum.

        Bottom-up reconciliation is coherent by construction, so this is
        a self-check (float-associativity noise at most), not a repair.
        """
        worst = 0.0
        for metric, band in self.estate.bands.items():
            parts = [d.bands[metric] for d in self.demands if metric in d.bands]
            horizon = min([band.mean.size] + [p.mean.size for p in parts])
            direct = np.sum([p.mean[:horizon] for p in parts], axis=0)
            gap = np.abs(band.mean[:horizon] - direct)
            finite = gap[np.isfinite(gap)]
            if finite.size:
                worst = max(worst, float(finite.max()))
        return worst

    def describe_lines(self) -> list[str]:
        lines = []
        for cluster in self.clusters:
            lines.extend(cluster.describe_lines())
        lines.extend(self.estate.describe_lines())
        return lines


def _level(name: str, demands: Sequence[InstanceDemand]) -> ReconciledLevel:
    metrics = sorted({m for d in demands for m in d.bands})
    bands = {
        metric: combine_bands([d.bands[metric] for d in demands if metric in d.bands])
        for metric in metrics
    }
    return ReconciledLevel(
        name=name, members=tuple(sorted(d.instance for d in demands)), bands=bands
    )


def reconcile(
    demands: Sequence[InstanceDemand],
    clusters: Mapping[str, str] | None = None,
    estate_name: str = "estate",
) -> ReconciledEstate:
    """Run the bottom-up pass over per-instance demands.

    ``clusters`` maps instance → cluster name. When given, each covered
    demand's ``group`` is set to its cluster so the planner offers
    consolidation within it; uncovered demands keep their own ``group``
    (or fall into a ``"default"`` cluster). When omitted, existing
    ``group`` labels define the clustering and demands pass through
    unchanged — reconciliation never alters base forecasts.
    """
    if not demands:
        raise DataError("reconcile needs at least one demand")
    names = [d.instance for d in demands]
    if len(set(names)) != len(names):
        raise DataError("duplicate instances in demands")

    annotated: list[InstanceDemand] = []
    assignment: dict[str, str] = {}
    for demand in demands:
        if clusters is not None and demand.instance in clusters:
            cluster = clusters[demand.instance]
            demand = replace(demand, group=cluster)
        else:
            cluster = demand.group if demand.group is not None else "default"
        annotated.append(demand)
        assignment[demand.instance] = cluster

    grouped: dict[str, list[InstanceDemand]] = {}
    for demand in annotated:
        grouped.setdefault(assignment[demand.instance], []).append(demand)
    levels = tuple(
        _level(f"cluster:{cluster}", grouped[cluster]) for cluster in sorted(grouped)
    )
    return ReconciledEstate(
        demands=tuple(sorted(annotated, key=lambda d: d.instance)),
        clusters=levels,
        estate=_level(estate_name, annotated),
    )
