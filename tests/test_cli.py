"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core import Frequency, TimeSeries


@pytest.fixture
def scenario_csv(tmp_path):
    """A small scenario CSV produced through the CLI itself."""
    path = str(tmp_path / "series.csv")
    code = main(["simulate", "--experiment", "erp", "--days", "45", "--out", path])
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_simulate_args(self):
        args = build_parser().parse_args(
            ["simulate", "--experiment", "web", "--days", "10", "--seed", "3"]
        )
        assert args.experiment == "web"
        assert args.days == 10.0


class TestSimulate:
    def test_scenario_to_csv(self, tmp_path, capsys):
        path = str(tmp_path / "web.csv")
        assert main(["simulate", "--experiment", "web", "--out", path]) == 0
        lines = open(path).read().splitlines()
        assert lines[0] == "timestamp,value"
        assert len(lines) > 500

    def test_experiment_requires_db_out(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--experiment", "olap"])

    def test_experiment_to_db(self, tmp_path, capsys):
        path = str(tmp_path / "m.db")
        # A full experiment is slow to simulate via CLI default days, but
        # ingest counts confirm the whole path ran.
        assert main(["simulate", "--experiment", "olap", "--out", path]) == 0
        out = capsys.readouterr().out
        assert "samples" in out
        from repro.agent import MetricsRepository

        with MetricsRepository(path) as repo:
            assert repo.instances() == ["cdbm011", "cdbm012"]


class TestInspect:
    def test_inspect_csv(self, scenario_csv, capsys):
        assert main(["inspect", "--csv", scenario_csv]) == 0
        out = capsys.readouterr().out
        assert "Characterisation" in out
        assert "seasonal strength" in out
        assert "fault verdict" in out

    def test_inspect_needs_source(self, capsys):
        with pytest.raises(SystemExit):
            main(["inspect"])

    def test_inspect_db_needs_instance(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["inspect", "--db", str(tmp_path / "x.db")])


class TestForecast:
    def test_forecast_csv_with_threshold(self, scenario_csv, capsys, tmp_path):
        out_csv = str(tmp_path / "fc.csv")
        code = main(
            [
                "forecast",
                "--csv",
                scenario_csv,
                "--technique",
                "hes",
                "--threshold",
                "500",
                "--out",
                out_csv,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "history" in out and "forecast" in out
        assert "threshold 500" in out
        assert "selected: HES" in out
        header = open(out_csv).read().splitlines()[0]
        assert header.startswith("timestamp")

    def test_forecast_horizon_override(self, scenario_csv, capsys):
        assert (
            main(["forecast", "--csv", scenario_csv, "--technique", "hes", "--horizon", "12"])
            == 0
        )


class TestAdvise:
    def test_advise_over_small_repository(self, tmp_path, capsys):
        import numpy as np

        from repro.agent import MetricsRepository
        from repro.service import CapacityPlanner

        path = str(tmp_path / "estate.db")
        rng = np.random.default_rng(0)
        t = np.arange(500)
        with MetricsRepository(path) as repo:
            planner = CapacityPlanner(repository=repo)
            planner.ingest_series(
                "db1",
                "cpu",
                TimeSeries(
                    40 + 8 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 1, 500),
                    Frequency.HOURLY,
                ),
            )
        code = main(["advise", "--db", path, "--threshold", "cpu=90", "--jobs", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "estate: 1 workload metrics" in out
        assert "db1/cpu" in out

    def test_bad_threshold_syntax(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["advise", "--db", str(tmp_path / "x.db"), "--threshold", "cpu:90"])


class TestStream:
    def test_stream_replays_and_alerts(self, capsys):
        code = main(
            [
                "stream",
                "--days", "6",
                "--min-observations", "96",
                "--threshold", "cpu=26",
                "--seed", "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        # The four telemetry layers are reported...
        assert "ingest:" in out and "windows:" in out
        assert "models:" in out and "alerts:" in out
        # ...the estate got modelled from the stream...
        assert "initial" in out
        # ...and the tight threshold fired a debounced alert.
        assert "RAISED" in out

    def test_stream_unknown_metric_rejected(self):
        with pytest.raises(SystemExit):
            main(["stream", "--days", "2", "--metric", "bogus"])

    def test_stream_bad_threshold_syntax(self):
        with pytest.raises(SystemExit):
            main(["stream", "--days", "2", "--threshold", "cpu:90"])

    def test_stream_negative_shards_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stream", "--days", "2", "--shards", "-2"])
        assert exc.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_stream_zero_shards_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stream", "--days", "2", "--shards", "0"])
        assert exc.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_stream_plan_lines_identical_inline_and_across_processes(self, capsys):
        argv = [
            "stream",
            "--days", "8",
            "--min-observations", "96",
            "--threshold", "cpu=18",
            "--plan",
        ]
        outputs = {}
        for shards in ("1", "2"):
            assert main(argv + ["--shards", shards]) == 0
            outputs[shards] = capsys.readouterr().out.splitlines()
        assert "shards: 1 (inline)" in outputs["1"]
        assert "shards: 2 (processes)" in outputs["2"]
        inline, sharded = (
            [line for line in out if not line.startswith("shards:")]
            for out in outputs.values()
        )
        assert inline == sharded
        for marker in (" RAISED ", " PLAN ", "model refit: "):
            assert any(marker in line for line in inline), marker
        assert any(line.startswith("plans: 7 proposals") for line in inline)


class TestPlan:
    def test_plan_zero_shards_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "plan",
                    "--db", str(tmp_path / "x.db"),
                    "--threshold", "cpu=90",
                    "--shards", "0",
                ]
            )
        assert exc.value.code == 2
        assert "--shards" in capsys.readouterr().err
        assert not (tmp_path / "x.db").exists()  # rejected before any work


class TestRoundTripCsv:
    def test_missing_values_roundtrip(self, tmp_path):
        from repro.cli import _load_csv_series, _write_csv_series

        values = np.array([1.0, np.nan, 3.0, 4.0])
        series = TimeSeries(values, Frequency.HOURLY, start=0.0)
        path = str(tmp_path / "gap.csv")
        _write_csv_series(path, series)
        loaded = _load_csv_series(path, Frequency.HOURLY)
        assert np.isnan(loaded.values[1])
        assert loaded.values[2] == 3.0
