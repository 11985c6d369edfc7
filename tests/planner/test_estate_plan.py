"""Tests for the exact estate planner."""

import functools
import itertools
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DataError
from repro.planner import (
    DEFAULT_CATALOG,
    BlueprintKind,
    ForecastBand,
    InstanceDemand,
    enumerate_blueprints,
    enumerate_consolidations,
    plan_estate,
    score_blueprint,
)

SMALL = DEFAULT_CATALOG[0]


def band(level, spread=2.0, n=24):
    mean = np.full(n, float(level))
    return ForecastBand(mean=mean, upper=mean + spread)


def demand(instance, level=20.0, capacity=26.0, group=None, spread=2.0):
    return InstanceDemand(
        instance=instance,
        tier=SMALL,
        bands={"cpu": band(level, spread)},
        capacities={"cpu": float(capacity)},
        group=group,
    )


class TestPlanEstate:
    def test_every_instance_covered_exactly_once(self):
        plan = plan_estate([demand("a"), demand("b"), demand("c", level=30.0)])
        covered = [i for c in plan.choices for i in c.blueprint.instances]
        assert sorted(covered) == ["a", "b", "c"]

    def test_breaching_instance_gets_more_capacity(self):
        plan = plan_estate([demand("hot", level=30.0), demand("cold", level=5.0)])
        by_instance = {c.blueprint.instances[0]: c for c in plan.choices}
        assert by_instance["hot"].blueprint.kind is not BlueprintKind.STAY
        assert by_instance["hot"].score.breach_probability < 0.05
        assert by_instance["cold"].blueprint.hourly_cost <= SMALL.hourly_cost

    def test_consolidation_couples_the_group(self):
        plan = plan_estate(
            [
                demand("a", level=5.0, group="rack1"),
                demand("b", level=5.0, group="rack1"),
            ]
        )
        assert len(plan.choices) == 1
        assert plan.choices[0].blueprint.kind is BlueprintKind.CONSOLIDATE
        assert plan.choices[0].blueprint.instances == ("a", "b")

    def test_mismatched_group_does_not_consolidate(self):
        # The group's capacity translation is the *minimum* density across
        # members (a conservative rule), so consolidating a tiny box with
        # a huge one forces an absurdly large shared tier; two separate
        # stays are far cheaper and win.
        plan = plan_estate(
            [
                demand("a", level=10.0, capacity=26.0, group="rack1"),
                demand("b", level=900.0, capacity=1000.0, group="rack1"),
            ]
        )
        assert len(plan.choices) == 2
        assert all(c.blueprint.kind is BlueprintKind.STAY for c in plan.choices)
        assert plan.breach_probability < 0.05

    def test_totals_sum_over_choices(self):
        plan = plan_estate([demand("a"), demand("b")])
        assert plan.total_hourly_cost == pytest.approx(
            sum(c.blueprint.hourly_cost for c in plan.choices)
        )
        assert plan.total_composite == pytest.approx(
            sum(c.score.composite for c in plan.choices)
        )

    def test_validation(self):
        with pytest.raises(DataError):
            plan_estate([])
        with pytest.raises(DataError):
            plan_estate([demand("a"), demand("a")])


class TestDeterminism:
    def test_same_inputs_same_bytes(self):
        demands = [demand("a", 25.0), demand("b", 30.0), demand("c", 5.0)]
        first = plan_estate(demands).to_json()
        second = plan_estate(demands).to_json()
        assert first == second

    def test_demand_order_is_irrelevant(self):
        demands = [demand("a", 25.0), demand("b", 30.0), demand("c", 5.0)]
        forward = plan_estate(demands).to_json()
        backward = plan_estate(list(reversed(demands))).to_json()
        assert forward == backward

    def test_bytes_stable_across_processes_and_hashseed(self):
        """Ties break on slugs, never hash(): a plan's JSON must be
        identical under different PYTHONHASHSEED values in fresh
        interpreters."""
        script = textwrap.dedent(
            """
            import numpy as np
            from repro.planner import DEFAULT_CATALOG, ForecastBand, InstanceDemand, plan_estate

            def demand(name, level):
                mean = np.full(24, float(level))
                return InstanceDemand(
                    instance=name,
                    tier=DEFAULT_CATALOG[0],
                    bands={"cpu": ForecastBand(mean=mean, upper=mean + 2.0)},
                    capacities={"cpu": 26.0},
                )

            demands = [demand("a", 25.0), demand("b", 30.0), demand("c", 5.0)]
            print(plan_estate(demands).to_json())
            """
        )
        outputs = []
        for hashseed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


def _brute_force_optimum(demands):
    """Lowest total composite over every plan, by full enumeration.

    A plan either consolidates each group of two or more members onto
    one of its consolidation blueprints or gives every member one of
    its own blueprints; every such combination is summed.
    """

    def composites(candidates, members):
        return np.array([score_blueprint(bp, members).composite for bp in candidates])

    own = {
        d.instance: composites(enumerate_blueprints(d.instance, d.tier), [d]) for d in demands
    }
    groups = {}
    for d in demands:
        if d.group is not None:
            groups.setdefault(d.group, []).append(d)
    blocks = [members for members in groups.values() if len(members) >= 2]
    best = math.inf
    for fuse in itertools.product((False, True), repeat=len(blocks)):
        options, fused = [], set()
        for members, fused_here in zip(blocks, fuse):
            if fused_here:
                names = [m.instance for m in members]
                options.append(composites(enumerate_consolidations(names), members))
                fused.update(names)
        options.extend(own[d.instance] for d in demands if d.instance not in fused)
        best = min(best, float(functools.reduce(np.add.outer, options).min()))
    return best


class TestOptimality:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 60.0),
                st.sampled_from([26.0, 52.0]),
                st.sampled_from([None, "g0", "g1", "g2"]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_matches_brute_force(self, specs):
        demands = [
            demand(f"i{k}", level=level, capacity=capacity, group=group, spread=3.0)
            for k, (level, capacity, group) in enumerate(specs)
        ]
        plan = plan_estate(demands)
        covered = sorted(i for c in plan.choices for i in c.blueprint.instances)
        assert covered == sorted(d.instance for d in demands)
        assert plan.total_composite == pytest.approx(_brute_force_optimum(demands), abs=1e-9)

    def test_consolidation_beats_an_early_single_choice(self):
        # The consolidation scores a hair above i1 alone, yet it covers i2
        # too: only a comparison against the members' summed bests, not
        # against any single member, picks it.
        demands = [
            demand("i0", level=23.9, group="q", spread=3.0),
            demand("i1", level=39.2, group="r", spread=3.0),
            demand("i2", level=39.5, group="r", spread=3.0),
        ]
        plan = plan_estate(demands)
        assert [c.blueprint.slug() for c in plan.choices] == [
            "scale-out:i0:t-smallx2",
            "consolidate:i1+i2:t-largex1",
        ]
        assert plan.total_composite == pytest.approx(4.2165, abs=1e-4)
        assert plan.total_composite == pytest.approx(_brute_force_optimum(demands), abs=1e-9)
