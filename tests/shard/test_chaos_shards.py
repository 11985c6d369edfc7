"""Chaos under sharding: scenarios run unchanged with ``shards=N``.

The survival report is the determinism contract's strongest form — at
N=1 the sharded report must be byte-identical to the single-process
:class:`~repro.stream.runtime.StreamRuntime` run (same fault draws at
every site, same advisories, same counters), and at N>1 the deployment
must still survive its scenario. The single-process reports are pinned
as golden files under ``golden/`` (``report.to_json() + "\n"``, the
bytes ``repro chaos --out`` writes), recorded from a run that drove one
``StreamRuntime`` directly with a serial executor; the CI chaos-smoke
job compares its artifact against ``golden/chaos-agent-flap-seed7.json``.

Runs under the reduced grid for CI-sized spans.
"""

import os
from pathlib import Path

import pytest

from repro.faults.scenarios import run_scenario

GOLDEN = Path(__file__).parent / "golden"


def golden(scenario: str, seed: int) -> str:
    return (GOLDEN / f"chaos-{scenario}-seed{seed}.json").read_text()


@pytest.fixture(autouse=True)
def reduced_grid(monkeypatch):
    monkeypatch.setenv("REPRO_REDUCED_GRID", "1")


class TestShardedChaos:
    def test_agent_flap_n1_report_byte_identical(self):
        sharded = run_scenario("agent-flap", seed=7, shards=1, shard_processes=False)
        assert sharded.to_json() + "\n" == golden("agent-flap", 7)

    def test_agent_flap_n1_process_mode_byte_identical(self):
        sharded = run_scenario("agent-flap", seed=7, shards=1, shard_processes=True)
        assert sharded.to_json() + "\n" == golden("agent-flap", 7)

    def test_agent_flap_survives_two_shards(self):
        report = run_scenario("agent-flap", seed=7, shards=2, shard_processes=False)
        assert report.survived
        assert report.counters["windows_closed"] > 0
        # the fault plane fired on both driver (agent) and worker sites
        assert report.faults.get("fault_transient_error", 0) > 0
        assert report.faults.get("fault_drop_sample", 0) > 0

    def test_blackout_degrades_but_survives_sharded(self):
        report = run_scenario("blackout", seed=3, shards=2, shard_processes=False)
        assert report.survived
        assert report.degraded_ticks > 0

    def test_shard_count_does_not_break_repo_lock_scenario(self):
        report = run_scenario("repo-lock", seed=5, shards=2, shard_processes=False)
        assert report.survived
        # repository.write contention is a driver-side site: the central
        # store's retries must still fire under sharding
        assert report.faults.get("repository_write_retries", 0) > 0


@pytest.mark.skipif(
    os.environ.get("REPRO_SHARD_SLOW", "") in ("", "0"),
    reason="slow cross-seed sweep; set REPRO_SHARD_SLOW=1",
)
class TestShardedChaosSweep:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("scenario", ["agent-flap", "nan-burst", "slow-selection"])
    def test_n1_identity_across_scenarios(self, scenario, seed):
        sharded = run_scenario(scenario, seed=seed, shards=1, shard_processes=False)
        assert sharded.to_json() + "\n" == golden(scenario, seed)
