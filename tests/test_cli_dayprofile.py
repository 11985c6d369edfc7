"""CLI paths with the day-profile family enabled.

The --dayprofile flag is plumbed through forecast, plan and stream; the
grid winner surfaces in the forecast panel, the plan reconciles clustered
instances bottom-up, and both plan and stream are byte-deterministic
across processes (different PYTHONHASHSEED) — the property the
SelectionCache and the sharded serving plane both rely on."""

import subprocess
import sys

import numpy as np
import pytest

from repro.cli import main
from repro.core import Frequency, TimeSeries

PERIOD = 24


def three_shape_values(seed, n_days=12):
    rng = np.random.default_rng(seed)
    hours = np.arange(PERIOD)
    shapes = [
        20.0 + 2.0 * np.sin(2 * np.pi * hours / PERIOD),
        50.0 + 20.0 * ((hours >= 9) & (hours <= 17)),
        30.0 + 40.0 * np.exp(-0.5 * ((hours - 20.0) / 2.0) ** 2),
    ]
    values = np.concatenate([shapes[d % 3] for d in range(n_days)])
    return values + rng.normal(0, 0.5, n_days * PERIOD)


@pytest.fixture
def estate_db(tmp_path):
    """Two instances whose cpu series follow a 3-day shape rotation."""
    from repro.agent import MetricsRepository
    from repro.service import CapacityPlanner

    path = str(tmp_path / "estate.db")
    planner = CapacityPlanner(repository=MetricsRepository(path))
    for seed, instance in ((1, "db1"), (2, "db2")):
        series = TimeSeries(
            three_shape_values(seed),
            frequency=Frequency.HOURLY,
            start=0.0,
            name=f"{instance}.cpu",
        )
        planner.ingest_series(instance, "cpu", series)
    planner.repository.close()
    return path


def _run_cli(argv, hashseed):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src", "PYTHONHASHSEED": hashseed},
    )


class TestForecastDayProfile:
    def test_grid_winner_is_dayprofile(self, tmp_path, capsys):
        from repro.cli import _write_csv_series

        path = str(tmp_path / "shape.csv")
        _write_csv_series(
            path,
            TimeSeries(
                three_shape_values(0), frequency=Frequency.HOURLY, start=0.0
            ),
        )
        code = main(
            [
                "forecast",
                "--csv", path,
                "--technique", "sarimax",
                "--dayprofile",
                "--horizon", "24",
                "--jobs", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "selected: DayProfile(k=" in out

    def test_flag_off_keeps_default_grid(self, tmp_path, capsys):
        from repro.cli import _write_csv_series

        path = str(tmp_path / "shape.csv")
        _write_csv_series(
            path,
            TimeSeries(
                three_shape_values(0), frequency=Frequency.HOURLY, start=0.0
            ),
        )
        code = main(
            ["forecast", "--csv", path, "--technique", "sarimax",
             "--horizon", "24", "--jobs", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "DayProfile" not in out


class TestPlanDeterminism:
    def test_plan_bytes_identical_across_processes(self, estate_db, tmp_path):
        runs = []
        for hashseed in ("1", "31337"):
            out_json = str(tmp_path / f"plan-{hashseed}.json")
            proc = _run_cli(
                [
                    "plan",
                    "--db", estate_db,
                    "--threshold", "cpu=95",
                    "--technique", "sarimax",
                    "--dayprofile",
                    "--cluster", "db1=core",
                    "--cluster", "db2=core",
                    "--jobs", "1",
                    "--out", out_json,
                ],
                hashseed,
            )
            assert proc.returncode == 0, proc.stderr
            stdout = proc.stdout.replace(out_json, "PLAN_JSON")
            runs.append((stdout, open(out_json).read()))
        assert runs[0] == runs[1]
        stdout, plan_json = runs[0]
        # Bottom-up reconciliation reported the cluster rollup, and the
        # planner treated the clustered pair as a co-location group.
        assert "cluster:core: 2 member(s)" in stdout
        assert "estate: 2 member(s)" in stdout
        assert "consolidate" in stdout
        assert '"choices"' in plan_json or "db1" in plan_json


class TestStreamDeterminism:
    def test_stream_output_identical_across_processes(self):
        argv = [
            "stream",
            "--days", "6",
            "--min-observations", "96",
            "--threshold", "cpu=26",
            "--seed", "0",
            "--dayprofile",
        ]
        outputs = set()
        for hashseed in ("1", "424242"):
            proc = _run_cli(argv, hashseed)
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        out = next(iter(outputs))
        assert "models:" in out and "alerts:" in out
