"""Tests for the ``repro chaos`` CLI subcommand."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def reduced(monkeypatch):
    monkeypatch.setenv("REPRO_REDUCED_GRID", "1")


class TestParsing:
    def test_defaults(self):
        args = build_parser().parse_args(["chaos", "--scenario", "agent-flap"])
        assert args.scenario == "agent-flap"
        assert args.seed == 0
        assert args.shards == 1
        assert args.out is None

    def test_scenario_listing(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("agent-flap", "nan-burst", "repo-lock", "blackout"):
            assert name in out

    def test_missing_scenario_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos"])

    def test_unknown_scenario_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "--scenario", "frobnicate"])
        err = capsys.readouterr().err
        assert "agent-flap" in err  # the error lists what is available

    def test_negative_shards_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--scenario", "agent-flap", "--shards", "-2"])
        assert exc.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_zero_shards_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--scenario", "agent-flap", "--shards", "0"])
        assert exc.value.code == 2
        assert "--shards" in capsys.readouterr().err


class TestRun:
    def test_survival_report_and_artifact(self, tmp_path, capsys):
        out = tmp_path / "survival.json"
        code = main(
            ["chaos", "--scenario", "repo-lock", "--seed", "7", "--out", str(out)]
        )
        assert code == 0  # survived
        printed = capsys.readouterr().out
        assert "chaos scenario: repo-lock (seed 7)" in printed
        assert "survived: yes" in printed
        doc = json.loads(out.read_text())
        assert doc["scenario"] == "repo-lock"
        assert doc["survived"] is True

    def test_same_seed_writes_byte_identical_reports(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        argv = ["chaos", "--scenario", "repo-lock", "--seed", "7"]
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
