"""Planning under the shard plane: N shards ≡ one process, plans included.

Extends the sharding determinism contract (:mod:`tests.shard.test_parity`)
to the provisioning surface: merged PlanProposals and the estate plan
built by :meth:`ShardedRuntime.propose_plan` must be identical whether
the keys live on one shard or are hash-partitioned across several. Also
pins the chaos contract — planning is observation-only, so a chaos
report is byte-identical with it on or off.

Selection is stubbed with the cheap flat model; shards run inline so the
stub patch is visible to every shard.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.agent import AgentSample
from repro.faults.scenarios import run_scenario
from repro.models.base import FittedModel
from repro.planner import PlanProposal
from repro.selection import AutoConfig
from repro.selection.auto import SelectionOutcome
from repro.service import EstatePlanner
from repro.shard import ShardedRuntime
from repro.stream import StreamConfig, StreamRuntime

STEP = 900.0


@dataclass
class _FlatModel(FittedModel):
    def forecast(self, horizon, alpha=0.05, **kwargs):
        level = float(np.mean(self.train.values[-24:]))
        return self.make_forecast(np.full(horizon, level), np.ones(horizon), alpha)

    def label(self):
        return "flat"


@pytest.fixture
def stub_selection(monkeypatch):
    def fake_auto_select(series, config=None, executor=None, **kwargs):
        model = _FlatModel(
            train=series, residuals=np.zeros(len(series)), sigma2=1.0, n_params=1
        )
        return SelectionOutcome(
            model=model,
            technique="hes",
            test_rmse=1.0,
            best_spec=None,
            seasonality=None,
            shock_calendar=None,
        )

    monkeypatch.setattr("repro.service.estate.auto_select", fake_auto_select)


def polls(n_hours, value, instance):
    return [
        AgentSample(
            instance=instance,
            metric="cpu",
            timestamp=i * STEP,
            value=float(value),
        )
        for i in range(int(n_hours * 4))
    ]


def sample_stream():
    """One steadily breaching key, one calm one, interleaved by time."""
    out = polls(48, 150.0, "db1") + polls(48, 40.0, "db2")
    out.sort(key=lambda s: (s.timestamp, s.instance))
    return out


CONFIG = StreamConfig(
    thresholds={"cpu": 100.0},
    jitter_seconds=0.0,
    duplicate_rate=0.0,
    batch_polls=32,
    raise_after=2,
    recover_after=2,
    min_observations=24,
    seed=7,
    planning=True,
    plan_sustained_ticks=2,
    plan_cooldown_seconds=4 * 3600.0,
)


def single_run():
    rt = StreamRuntime(
        planner=EstatePlanner(config=AutoConfig(technique="hes", n_jobs=1)),
        config=CONFIG,
    )
    rt.run(sample_stream())
    rt.finish()
    return rt


def sharded_run(n, config=CONFIG):
    sh = ShardedRuntime(n, config=config, technique="hes", processes=False)
    ticks = sh.run(sample_stream())
    ticks.append(sh.finish())
    return sh, ticks


class TestShardedProposalParity:
    @pytest.mark.parametrize("n", [1, 2])
    def test_proposals_identical_to_single_process(self, stub_selection, n):
        rt = single_run()
        sh, _ = sharded_run(n)
        try:
            assert rt.proposals  # the fixture stream must plan
            assert sh.proposals == rt.proposals
            assert all(isinstance(p, PlanProposal) for p in sh.proposals)
        finally:
            sh.close()

    def test_proposals_ride_merged_ticks_in_key_order(self, stub_selection):
        sh, ticks = sharded_run(2)
        try:
            from_ticks = [p for t in ticks for p in t.proposals]
            assert from_ticks == sh.proposals
            for tick in ticks:
                keys = [p.key for p in tick.proposals]
                assert keys == sorted(keys)
        finally:
            sh.close()


class TestProposePlanParity:
    def test_plan_bytes_identical_across_shard_counts(self, stub_selection):
        plans = []
        for n in (1, 2):
            sh, _ = sharded_run(n)
            try:
                plan = sh.propose_plan()
                assert plan is not None
                plans.append(plan.to_json())
            finally:
                sh.close()
        assert plans[0] == plans[1]

    def test_plan_covers_every_thresholded_instance(self, stub_selection):
        sh, _ = sharded_run(2)
        try:
            plan = sh.propose_plan()
            covered = sorted(
                i for c in plan.choices for i in c.blueprint.instances
            )
            assert covered == ["db1", "db2"]
            # the breaching instance is re-provisioned out of its breach
            by_instance = {c.blueprint.instances[0]: c for c in plan.choices}
            assert by_instance["db1"].score.breach_probability < 0.05
        finally:
            sh.close()

    def test_only_fired_restricts_to_firing_keys(self, stub_selection):
        # An effectively-infinite in-run cooldown: the escalator plans
        # db1 once, then stops consuming trigger evidence, so db1's
        # breach streak is still standing when the estate is re-planned
        # under an explicit zero-cooldown policy.
        from repro.planner import TriggerPolicy

        config = StreamConfig(
            **{**CONFIG.__dict__, "plan_cooldown_seconds": 1e9}
        )
        sh, _ = sharded_run(2, config=config)
        try:
            assert len(sh.proposals) == 1
            plan = sh.propose_plan(
                only_fired=True,
                policy=TriggerPolicy(
                    sustained_breach_ticks=2, cooldown_seconds=0.0
                ),
            )
            covered = [i for c in plan.choices for i in c.blueprint.instances]
            assert covered == ["db1"]
        finally:
            sh.close()

    def test_fully_planned_run_has_no_firing_triggers_left(self, stub_selection):
        # The in-run escalator consumes every trigger the moment it
        # fires, so a completed run leaves nothing for only_fired.
        sh, _ = sharded_run(2)
        try:
            assert sh.proposals
            assert sh.propose_plan(only_fired=True) is None
        finally:
            sh.close()

    def test_planning_disabled_yields_no_plan(self, stub_selection):
        config = StreamConfig(
            **{**CONFIG.__dict__, "planning": False}
        )
        sh, _ = sharded_run(2, config=config)
        try:
            assert sh.proposals == []
            # without trigger state nothing fires, so only_fired is empty
            assert sh.propose_plan(only_fired=True) is None
        finally:
            sh.close()


class TestChaosPlanningParity:
    def test_report_identical_with_planning_on(self):
        """Chaos reports carry only serving-plane counters; the planning
        escalator observing the same run must not change a byte."""
        plain = run_scenario("agent-flap", seed=3, days=2.0, planning=False)
        planning = run_scenario("agent-flap", seed=3, days=2.0, planning=True)
        assert planning.to_json() == plain.to_json()
