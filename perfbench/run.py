"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload select-oltp --seed 1 --seconds 15 --trace 0

Run from the repository root; the program is imported from ``src/``.
Standard output carries an ``env`` line, a ``detail`` line (the
workload's own named results and any failed checks) and, last, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
workload runs traced and the metrics are the per-layer ones, and the
spans are written to ``.perfbench/``. The exit code is 1 when an output
check failed and 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

# Every workload is one serial job. On a small host a multi-threaded BLAS
# only contends with itself (auto_select ran 1.5x slower with two OpenBLAS
# threads on 2 CPUs), so pin it before numpy loads; the env line records it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".perfbench"

#: name -> unit, in BENCHMARK.json order. Times are host-adjusted (see
#: hostspeed); the wall figures are on the detail line.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
}

PER_LAYER = {
    "selection.characterise_s": "s",
    "selection.enumerate_s": "s",
    "selection.score_s": "s",
    "selection.augment_s": "s",
    "selection.refit_s": "s",
    "selection.candidates_fitted": "count",
    "selection.candidates_failed": "count",
    "selection.candidates_pruned": "count",
    "selection.ms_per_candidate": "ms",
    "selection.rmse_vs_naive": "ratio",
    "stream.ingest.busy_s": "s",
    "stream.ingest.samples": "count",
    "stream.aggregate.busy_s": "s",
    "stream.aggregate.windows": "count",
    "stream.scheduler.self_s": "s",
    "stream.scheduler.grades_per_window": "ratio",
    "models.roll.busy_s": "s",
    "models.roll.rows": "count",
    "models.forecast.busy_s": "s",
    "models.forecast.rows": "count",
    "service.thresholds.busy_s": "s",
    "service.thresholds.calls": "count",
    "service.selection.busy_s": "s",
    "service.selection.runs": "count",
    "service.selection.keys_modelled": "count",
    "service.selection.keys_per_refit": "ratio",
    "stream.alerts.busy_s": "s",
    "stream.alerts.raised": "count",
    "stream.alerts.lead_h": "h",
    "stream.alerts.miss_rate": "ratio",
    "agent.repository.busy_s": "s",
    "agent.repository.rows": "count",
    "planner.escalation.busy_s": "s",
    "planner.escalation.proposals": "count",
    "planner.enumerate.busy_s": "s",
    "planner.score.busy_s": "s",
    "planner.score.blueprints": "count",
    "planner.search.self_s": "s",
    "planner.composite": "score",
    "trace.coverage": "ratio",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
    "trace.hooks_absent": "count",
    "trace.throughput_per_s": "1/s",
}

#: Per-layer metric -> (span layer, field of Recorder.layers()).
SPAN_METRICS = {
    "stream.ingest.busy_s": ("stream.ingest", "busy_s"),
    "stream.ingest.samples": ("stream.ingest", "units"),
    "stream.aggregate.busy_s": ("stream.aggregate", "busy_s"),
    "stream.aggregate.windows": ("stream.aggregate", "units"),
    "stream.scheduler.self_s": ("stream.scheduler", "self_s"),
    "models.roll.busy_s": ("models.roll", "busy_s"),
    "models.roll.rows": ("models.roll", "units"),
    "models.forecast.busy_s": ("models.forecast", "busy_s"),
    "models.forecast.rows": ("models.forecast", "units"),
    "service.thresholds.busy_s": ("service.thresholds", "busy_s"),
    "service.thresholds.calls": ("service.thresholds", "calls"),
    "service.selection.busy_s": ("service.selection", "busy_s"),
    "service.selection.runs": ("service.selection", "calls"),
    "service.selection.keys_modelled": ("service.selection", "units"),
    "stream.alerts.busy_s": ("stream.alerts", "busy_s"),
    "stream.alerts.raised": ("stream.alerts", "units"),
    "agent.repository.busy_s": ("agent.repository", "busy_s"),
    "agent.repository.rows": ("agent.repository", "units"),
    "planner.escalation.busy_s": ("planner.escalation", "busy_s"),
    "planner.escalation.proposals": ("planner.escalation", "units"),
    "planner.enumerate.busy_s": ("planner.enumerate", "busy_s"),
    "planner.score.busy_s": ("planner.score", "busy_s"),
    "planner.score.blueprints": ("planner.score", "units"),
    "planner.search.self_s": ("planner.search", "self_s"),
}

#: Selection stages summed from the RunTrace every auto_select returns.
STAGES = ("characterise", "enumerate", "score", "augment", "refit")
CANDIDATE_COUNTERS = ("candidates_fitted", "candidates_failed", "candidates_pruned")


def environment() -> dict:
    import scipy

    from repro.engine import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    threads = {
        var: os.environ.get(var, "")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "kernel_backend": kernels.active_backend(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
    }


def end_to_end(result) -> dict[str, float]:
    """The gated metrics, host-adjusted; per-operation percentiles are not.

    stream-serve's ticks are multimodal (over a third close no window and
    one in eight grades the estate), so its tick median sits in a sparse
    gap (host-adjusted, it spread 18% over ten seeds), its p90 on the edge
    of the grading mode and its p99 among the seed-dependent refit ticks.
    For select-oltp and plan-estate, with two operations a run, the
    median only restates throughput. All of them go on the detail line.
    """
    return {
        "setup_s": result.setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput_per_s": result.work / sum(result.op_adjusted),
    }


def wall_figures(result) -> dict[str, float]:
    """Operation percentiles, host-adjusted and in wall time, the wall
    set-up time and throughput, and the host's slowdown over nominal."""
    ms = np.asarray(result.op_seconds) * 1e3
    adjusted = np.asarray(result.op_adjusted) * 1e3
    out = {
        "setup_s": result.setup_wall_s,
        "throughput_per_s": result.work / result.work_seconds,
        "ops": len(ms),
        "host_slowdown": result.slowdown,
    }
    for q in (50, 90, 99):
        out[f"op_p{q}_ms"] = float(np.percentile(ms, q))
        out[f"adjusted_op_p{q}_ms"] = float(np.percentile(adjusted, q))
    return out


class SelectionStages:
    """Observer summing stage seconds and counters of every auto_select."""

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(STAGES, 0.0)
        self.counters = dict.fromkeys(CANDIDATE_COUNTERS, 0)

    def __call__(self, layer, args, outcome) -> None:
        if layer != "selection" or getattr(outcome, "trace", None) is None:
            return
        for stage, secs in outcome.trace.stage_seconds().items():
            if stage in self.seconds:
                self.seconds[stage] += secs
        for key in CANDIDATE_COUNTERS:
            self.counters[key] += outcome.trace.counters.get(key, 0)


def per_layer(result, recorder, stages: SelectionStages, span_cost: float) -> dict[str, float]:
    layers = recorder.layers()
    out = dict.fromkeys(PER_LAYER, 0.0)
    for name, (layer, column) in SPAN_METRICS.items():
        out[name] = float(layers.get(layer, {}).get(column, 0.0))
    for stage, secs in stages.seconds.items():
        out[f"selection.{stage}_s"] = secs
    for key, value in stages.counters.items():
        out[f"selection.{key}"] = float(value)
    fitted = stages.counters["candidates_fitted"]
    if fitted:
        busy = stages.seconds["score"] + stages.seconds["augment"]
        out["selection.ms_per_candidate"] = 1e3 * busy / fitted
    refits = result.counts.get("refits", 0)
    if refits:
        out["service.selection.keys_per_refit"] = out["service.selection.keys_modelled"] / refits
    out.update(result.layer)
    out["trace.coverage"] = recorder.root_seconds() / result.timed_s
    out["trace.overhead_share"] = len(recorder.spans) * span_cost / result.timed_s
    out["trace.spans"] = float(len(recorder.spans))
    out["trace.hooks_absent"] = float(len(recorder.absent))
    out["trace.throughput_per_s"] = result.work / sum(result.op_adjusted)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    print("env: " + json.dumps(environment(), sort_keys=True), flush=True)

    run = workloads.WORKLOADS[args.workload]
    if args.trace:
        span_cost = spans.span_cost_seconds()
        recorder = spans.Recorder()
        stages = SelectionStages()
        recorder.observer = stages
        result = run(args.seed, args.seconds, recorder=recorder)
        metrics = per_layer(result, recorder, stages, span_cost)
        units = PER_LAYER
        TRACE_DIR.mkdir(exist_ok=True)
        recorder.write_jsonl(str(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"))
    else:
        result = run(args.seed, args.seconds)
        metrics = end_to_end(result)
        units = END_TO_END

    detail = dict(result.detail)
    detail["wall"] = wall_figures(result)
    detail["problems"] = result.problems
    if len(result.op_seconds) <= 16:
        detail["op_seconds"] = result.op_seconds
    if args.trace:
        detail["hooks_absent"] = recorder.absent
    print("detail: " + json.dumps(detail, sort_keys=True, default=str), flush=True)
    attempted = len(result.op_seconds)
    failed = min(result.failed, attempted)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
