"""Control-plane mechanics: process workers, rebalance, error handling."""

import numpy as np
import pytest

from repro.agent import AgentSample
from repro.exceptions import DataError
from repro.shard import ShardedRuntime
from repro.stream import StreamConfig

STEP = 900.0


def polls(n_hours, value, start_hour=0, instance="db1", metric="cpu"):
    return [
        AgentSample(
            instance=instance,
            metric=metric,
            timestamp=(start_hour * 4 + i) * STEP,
            value=float(value + 8 * np.sin(i / 4)),
        )
        for i in range(int(n_hours * 4))
    ]


def stream(keys=("db1", "db2", "db3", "db4"), hours=30):
    out = []
    for k, inst in enumerate(keys):
        out += polls(hours, 40 + 5 * k, instance=inst)
    out.sort(key=lambda s: s.timestamp)
    return out


CONFIG = StreamConfig(
    thresholds={"cpu": 100.0},
    batch_polls=64,
    min_observations=24,
    seed=7,
)


class TestLifecycle:
    def test_validation(self):
        with pytest.raises(DataError):
            ShardedRuntime(0, processes=False)
        rt = ShardedRuntime(2, processes=False)
        with pytest.raises(DataError):
            rt.run([])
        rt.close()

    def test_close_is_idempotent(self):
        rt = ShardedRuntime(2, config=CONFIG, processes=False)
        rt.run(stream())
        rt.close()
        rt.close()

    def test_context_manager(self):
        with ShardedRuntime(2, config=CONFIG, processes=False) as rt:
            ticks = rt.run(stream())
            assert ticks


class TestProcessWorkers:
    def test_process_mode_runs_and_merges(self):
        with ShardedRuntime(2, config=CONFIG, processes=True) as rt:
            ticks = rt.run(stream())
            rt.finish()
            stats = rt.shard_stats()
            assert [s["shard"] for s in stats] == [0, 1]
            assert sum(s["counters"].get("windows_closed", 0) for s in stats) > 0
            assert all(s["process_cpu_seconds"] > 0 for s in stats)
            assert ticks

    def test_resync_counts_across_shards(self):
        with ShardedRuntime(2, config=CONFIG, processes=True) as rt:
            rt.run(stream())
            rt.finish()
            result = rt.resync()
            # too few observations for the real grid: every key lands in
            # `failed`, but the per-shard counts must still sum to the
            # whole estate
            assert result["modelled"] + result["failed"] == 4

    def test_per_shard_repository_partitions(self, tmp_path):
        url = f"sqlite://{tmp_path}/part{{shard}}.db"
        with ShardedRuntime(2, config=CONFIG, processes=True, repo_url=url) as rt:
            rt.run(stream())
            rt.finish()
            persisted = rt.telemetry().counters.get("repository_windows_persisted", 0)
            assert persisted > 0
        assert (tmp_path / "part0.db").exists()
        assert (tmp_path / "part1.db").exists()

    def test_worker_command_error_propagates_with_shard_id(self):
        rt = ShardedRuntime(2, config=CONFIG, processes=True)
        try:
            seq = rt._next_seq()
            for shard in rt._shards:
                shard.send(seq, "no-such-op", None)
            with pytest.raises(RuntimeError, match="shard 0"):
                rt._collect(seq)
        finally:
            rt.close()


class TestRebalance:
    def test_grow_preserves_window_stream(self):
        """Growing mid-stream loses no windows: the migrated keys carry
        their open buffers and grid anchors to their new shards."""
        data = stream(hours=48)
        half = len(data) // 2
        with ShardedRuntime(2, config=CONFIG, processes=False) as rt:
            rt.run(data[:half])
            info = rt.rebalance(4)
            assert rt.n_shards == 4
            rt.run(data[half:])
            rt.finish()
            total = rt.telemetry().counters.get("windows_closed", 0)
        with ShardedRuntime(1, config=CONFIG, processes=False) as ref:
            ref.run(data)
            ref.finish()
            expected = ref.telemetry().counters.get("windows_closed", 0)
        assert total == expected
        assert info["n_shards"] == 4

    def test_shrink_stops_surplus_workers(self):
        data = stream(hours=48)
        half = len(data) // 2
        with ShardedRuntime(4, config=CONFIG, processes=True) as rt:
            rt.run(data[:half])
            info = rt.rebalance(2)
            assert rt.n_shards == 2
            assert info["moved"] >= 1
            rt.run(data[half:])
            rt.finish()
            assert len(rt.shard_stats()) == 2

    def test_noop_rebalance(self):
        with ShardedRuntime(2, config=CONFIG, processes=False) as rt:
            rt.run(stream())
            assert rt.rebalance(2) == {"moved": 0, "n_shards": 2}

    def test_rebalance_validation(self):
        with ShardedRuntime(2, config=CONFIG, processes=False) as rt:
            with pytest.raises(DataError):
                rt.rebalance(0)
