"""Tests for the benchmark itself (not collected by the tier-1 suite).

    PYTHONPATH=src python -m pytest perfbench -q

Counts must repeat exactly for one seed, every trace hook must resolve on
the current tree, a hook whose target is gone must be reported rather
than crash the run, BENCHMARK.json must name exactly the metrics
``run.py`` prints, and host adjustment must scale by the probes and keep their
time out of what it times. The stream and plan checks run on smaller estates than
the benchmark's own so the suite takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span_counts(recorder: spans.Recorder) -> dict:
    return {layer: (row["calls"], row["units"]) for layer, row in recorder.layers().items()}


def _twice(workload, **kwargs):
    out = []
    for _ in range(2):
        recorder = spans.Recorder()
        result = workload(7, 0.0, recorder=recorder, **kwargs)
        assert result.failed == 0, result.problems
        assert recorder.absent == []
        out.append((result.counts, _span_counts(recorder), result.layer))
    return out


def test_stream_counts_repeat_for_one_seed():
    first, second = _twice(workloads.stream_serve, n_keys=12, serve_hours=60)
    counts = first[0]
    for key in ("windows", "advisories_computed", "repository_rows", "selection_runs"):
        assert counts[key] > 0, key
    assert first == second


def test_plan_counts_repeat_for_one_seed():
    first, second = _twice(workloads.plan_estate, n=60)
    assert first[1]["planner.score"][1] > 0  # blueprints scored
    assert first == second


def test_select_counts_and_winners_repeat_for_one_seed():
    runs = [workloads.select_oltp(7, 0.0) for _ in range(2)]
    assert all(r.failed == 0 for r in runs), [r.problems for r in runs]
    assert runs[0].counts["candidates_fitted"] > 0
    assert runs[0].counts == runs[1].counts
    assert runs[0].detail["winners"] == runs[1].detail["winners"]


def _fresh_runtime():
    from repro.agent.repository import MetricsRepository
    from repro.stream import StreamConfig, StreamRuntime

    return StreamRuntime(config=StreamConfig(planning=True), repository=MetricsRepository())


def test_every_hook_resolves_and_unhooks():
    import repro.planner
    import repro.service.estate

    original = repro.planner.plan_estate
    runtime = _fresh_runtime()
    recorder = spans.Recorder()
    recorder.hook_functions()
    recorder.hook_runtime(runtime)
    assert recorder.absent == []
    assert repro.planner.plan_estate is not original
    assert repro.service.estate.auto_select.__wrapped__ is repro.selection.auto.auto_select.__wrapped__
    assert "push_chunk" in vars(runtime.bus)
    recorder.unhook()
    assert repro.planner.plan_estate is original
    assert "push_chunk" not in vars(runtime.bus)


def test_missing_hook_target_is_reported_absent():
    recorder = spans.Recorder()
    recorder.hook_functions((("x", "repro.planner", "no_such_function", None),
                             ("x", "repro.no_such_module", "f", None)))
    recorder.hook_runtime(_fresh_runtime(), (("x", "bus", "no_such_method", None),
                                             ("x", "no_such_part", "advance", None)))
    assert recorder.absent == [
        "repro.planner.no_such_function",
        "repro.no_such_module.f",
        "StreamRuntime.bus.no_such_method",
        "StreamRuntime.no_such_part.advance",
    ]
    recorder.unhook()


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan-estate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_adjustment_scales_by_the_probes_and_skips_their_time():
    import signal
    import time

    import hostspeed

    sampler = hostspeed.Sampler()
    sampler.speeds = [hostspeed.REF_UNIT_S * 2, hostspeed.REF_UNIT_S * 4]
    assert abs(sampler.slowdown() - 3.0) < 1e-9
    assert abs(sampler.adjust(6.0) - 2.0) < 1e-9

    handler = signal.getsignal(signal.SIGALRM)
    result = workloads.Result(0.0, 0.0)
    with workloads._Timed(result) as timed:
        timed.op(time.sleep, 0.5)  # the timer probes inside the operation
    assert len(timed.sampler.speeds) >= 2
    assert abs(result.op_seconds[0] - 0.5) < 0.05
    assert abs(result.timed_s - 0.5) < 0.05
    assert result.op_adjusted == [result.op_seconds[0] / result.slowdown]
    assert signal.getsignal(signal.SIGALRM) is handler
