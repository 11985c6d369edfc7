"""Tests for distribution-aware blueprint scoring."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import Frequency, TimeSeries
from repro.exceptions import DataError
from repro.models.base import Forecast
from repro.planner import (
    DEFAULT_CATALOG,
    BlueprintKind,
    ForecastBand,
    InstanceDemand,
    ScoreWeights,
    demands_from_entries,
    enumerate_blueprints,
    enumerate_consolidations,
    rank_blueprints,
    score_blueprint,
)

SMALL, MEDIUM, LARGE = DEFAULT_CATALOG[0], DEFAULT_CATALOG[1], DEFAULT_CATALOG[2]


def band(level, spread=2.0, n=24):
    mean = np.full(n, float(level))
    return ForecastBand(mean=mean, upper=mean + spread)


def demand(instance="db1", level=30.0, capacity=26.0, tier=SMALL, **kwargs):
    return InstanceDemand(
        instance=instance,
        tier=tier,
        bands={"cpu": band(level)},
        capacities={"cpu": float(capacity)},
        **kwargs,
    )


def by_kind(candidates, kind, **attrs):
    for bp in candidates:
        if bp.kind is kind and all(getattr(bp, k) == v for k, v in attrs.items()):
            return bp
    raise AssertionError(f"no {kind} candidate")


class TestScoreBlueprint:
    def test_stay_on_breaching_forecast_is_near_certain_breach(self):
        d = demand(level=30.0, capacity=26.0)
        stay = by_kind(enumerate_blueprints("db1", SMALL), BlueprintKind.STAY)
        score = score_blueprint(stay, [d])
        assert score.breach_probability > 0.99
        assert score.expected_headroom < 0

    def test_more_capacity_means_lower_breach_and_higher_cost(self):
        d = demand(level=30.0, capacity=26.0)
        candidates = enumerate_blueprints("db1", SMALL)
        stay = score_blueprint(by_kind(candidates, BlueprintKind.STAY), [d])
        up = score_blueprint(
            by_kind(candidates, BlueprintKind.SCALE_UP, tier=MEDIUM), [d]
        )
        up2 = score_blueprint(
            by_kind(candidates, BlueprintKind.SCALE_UP, tier=LARGE), [d]
        )
        assert up.breach_probability < stay.breach_probability
        assert up2.breach_probability <= up.breach_probability
        assert stay.hourly_cost < up.hourly_cost < up2.hourly_cost
        assert stay.expected_headroom < up.expected_headroom < up2.expected_headroom

    def test_stay_cost_term_normalises_to_one(self):
        # With no breach and no overprovision excess, STAY's composite is
        # exactly the cost weight: its cost relative to itself is 1.0.
        d = demand(level=20.0, capacity=26.0)
        stay = by_kind(enumerate_blueprints("db1", SMALL), BlueprintKind.STAY)
        score = score_blueprint(stay, [d], ScoreWeights(breach=10.0, cost=1.0))
        assert score.breach_probability == pytest.approx(0.0, abs=1e-6)
        assert score.composite == pytest.approx(1.0, abs=1e-3)

    def test_overprovision_penalised_beyond_target(self):
        d = demand(level=1.0, capacity=26.0)
        candidates = enumerate_blueprints("db1", SMALL)
        stay = score_blueprint(by_kind(candidates, BlueprintKind.STAY), [d])
        huge = score_blueprint(
            by_kind(candidates, BlueprintKind.SCALE_UP, tier=LARGE), [d]
        )
        assert huge.overprovision > stay.overprovision > 1.0
        assert huge.composite > stay.composite

    def test_ranking_prefers_cheapest_breach_clearing_blueprint(self):
        d = demand(level=30.0, capacity=26.0)
        ranked = rank_blueprints(enumerate_blueprints("db1", SMALL), [d])
        best, best_score = ranked[0]
        assert best_score.breach_probability < 0.05
        # nothing cheaper also clears the breach
        for bp, score in ranked[1:]:
            if bp.hourly_cost < best.hourly_cost:
                assert score.breach_probability >= 0.05

    def test_consolidation_sums_member_demand(self):
        a = demand("a", level=20.0, capacity=26.0, group="g")
        b = demand("b", level=20.0, capacity=26.0, group="g")
        consolidated = by_kind(
            enumerate_consolidations(["a", "b"]),
            BlueprintKind.CONSOLIDATE,
            tier=SMALL,
            replicas=1,
        )
        score = score_blueprint(consolidated, [a, b])
        # 20 + 20 demand against capacity 26: certain breach on one box
        assert score.breach_probability > 0.99

    def test_consolidation_rejects_mixed_alphas(self):
        # Summed upper bands built at different alphas sit at no single
        # quantile, so no alpha can grade them.
        a = demand("a", level=10.0, group="g")
        b = InstanceDemand(
            instance="b",
            tier=SMALL,
            bands={"cpu": ForecastBand(mean=band(10.0).mean, upper=band(10.0).upper, alpha=0.2)},
            capacities={"cpu": 26.0},
            group="g",
        )
        consolidated = by_kind(
            enumerate_consolidations(["a", "b"]), BlueprintKind.CONSOLIDATE, tier=SMALL
        )
        with pytest.raises(DataError, match="mixed alphas"):
            score_blueprint(consolidated, [a, b])

    def test_coverage_must_match(self):
        d = demand("db1")
        other = by_kind(enumerate_blueprints("db2", SMALL), BlueprintKind.STAY)
        with pytest.raises(DataError):
            score_blueprint(other, [d])

    def test_empty_demands_rejected(self):
        stay = by_kind(enumerate_blueprints("db1", SMALL), BlueprintKind.STAY)
        with pytest.raises(DataError):
            score_blueprint(stay, [])

    def test_metric_without_capacity_rejected(self):
        d = InstanceDemand(
            instance="db1", tier=SMALL, bands={"cpu": band(10)}, capacities={}
        )
        stay = by_kind(enumerate_blueprints("db1", SMALL), BlueprintKind.STAY)
        with pytest.raises(DataError):
            score_blueprint(stay, [d])


class TestForecastBand:
    def test_payload_roundtrip(self):
        original = band(30.0, spread=3.0, n=5)
        restored = ForecastBand.from_payload(original.payload())
        np.testing.assert_allclose(restored.mean, original.mean)
        np.testing.assert_allclose(restored.upper, original.upper)
        assert restored.alpha == original.alpha


def _entry(workload, metric="cpu", level=20.0, threshold=26.0, outcome=True):
    def forecast(horizon, **kwargs):
        mean = np.full(horizon, float(level))

        def mk(v):
            return TimeSeries(v, Frequency.HOURLY)

        return Forecast(
            mean=mk(mean),
            lower=mk(mean - 2.0),
            upper=mk(mean + 2.0),
            alpha=0.05,
            model_label="stub",
        )

    return SimpleNamespace(
        key=SimpleNamespace(workload=workload, metric=metric),
        series=SimpleNamespace(frequency=Frequency.HOURLY),
        threshold=threshold,
        outcome=SimpleNamespace(
            model=SimpleNamespace(forecast=forecast),
            best_spec=None,
            shock_calendar=None,
        )
        if outcome
        else None,
    )


class TestDemandsFromEntries:
    def test_instances_sorted_and_metrics_merged(self):
        entries = [
            _entry("zeta", "cpu"),
            _entry("alpha", "cpu"),
            _entry("alpha", "sga_used", threshold=12.0),
        ]
        demands = demands_from_entries(entries, SMALL)
        assert [d.instance for d in demands] == ["alpha", "zeta"]
        assert set(demands[0].bands) == {"cpu", "sga_used"}
        assert demands[0].capacities["sga_used"] == 12.0

    def test_skips_unthresholded_and_unmodelled(self):
        entries = [
            _entry("a"),
            _entry("b", threshold=None),
            _entry("c", outcome=False),
        ]
        demands = demands_from_entries(entries, SMALL)
        assert [d.instance for d in demands] == ["a"]

    def test_horizon_override(self):
        demands = demands_from_entries([_entry("a")], SMALL, horizon=7)
        assert demands[0].bands["cpu"].mean.size == 7
