"""The three workloads: select-oltp, stream-serve and plan-estate.

Each runs in this one process on the serial executor and drives the
program only through its public entry points: ``auto_select`` with
``AutoConfig(n_jobs=1)``, ``StreamRuntime`` built from ``StreamConfig``
fields, and ``plan_estate(demands)`` with default arguments. A workload
returns a :class:`Result`; ``run.py`` turns it into metrics.

With a :class:`~spans.Recorder` the same workload runs traced: hooks go
in after set-up and come out after the timed phase, so spans cover the
timed phase only.

The host's speed is probed through every phase (see :mod:`hostspeed`),
so each phase's host-adjusted seconds can be reported beside its wall
seconds. Probe time is kept out of both.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from statistics import median

import numpy as np

import hostspeed
import inputs

#: Set-up is repeated this often where it is cheap; the median is reported.
SETUP_REPEATS = 11


@dataclass
class Result:
    #: Host-adjusted set-up seconds, and the same in wall seconds.
    setup_s: float
    setup_wall_s: float
    #: Wall seconds of each timed operation (auto_select call, tick, plan).
    op_seconds: list[float] = field(default_factory=list)
    #: Host-adjusted seconds of the same operations.
    op_adjusted: list[float] = field(default_factory=list)
    #: The timed phase's mean probe time over the nominal (hostspeed).
    slowdown: float = 1.0
    #: Work units done in the timed phase and the seconds they took.
    work: float = 0.0
    work_seconds: float = 0.0
    #: Wall seconds of the whole timed phase, probes excluded.
    timed_s: float = 0.0
    problems: list[str] = field(default_factory=list)
    #: Failed operations (a failed run-level check counts as one).
    failed: int = 0
    #: Exact counts that must repeat for one seed.
    counts: dict = field(default_factory=dict)
    #: Workload-specific named results, printed on the detail line.
    detail: dict = field(default_factory=dict)
    #: Per-layer values the program itself reports (counters, outcomes).
    layer: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.problems.append(message)
        self.failed += 1


def _median_setup(build):
    """Median host-adjusted and wall seconds of SETUP_REPEATS builds, and
    the last build. The builds take milliseconds, so the host is probed
    once after each instead of on the timer."""
    sampler = hostspeed.Sampler()
    walls, value = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        value = build()
        walls.append(time.perf_counter() - t0)
        sampler.probe()
    return sampler.adjust(median(walls)), median(walls), value


class _Timed:
    """The timed phase: a context that probes the host throughout and
    times each operation run through :meth:`op`, probes excluded."""

    def __init__(self, result: Result) -> None:
        self.result = result
        self.sampler = hostspeed.Sampler()
        self.start = 0.0

    def __enter__(self) -> _Timed:
        self.sampler.__enter__()
        self.start = time.perf_counter()
        return self

    def elapsed(self) -> float:
        return time.perf_counter() - self.start - self.sampler.spent

    def op(self, fn, *args, **kwargs):
        spent = self.sampler.spent
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.result.op_seconds.append(time.perf_counter() - t0 - (self.sampler.spent - spent))
        return out

    def __exit__(self, *exc) -> None:
        self.result.timed_s = self.elapsed()
        self.sampler.__exit__(*exc)
        self.result.op_adjusted = [self.sampler.adjust(w) for w in self.result.op_seconds]
        self.result.slowdown = self.sampler.slowdown()


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


# ---------------------------------------------------------------------------
# select-oltp
# ---------------------------------------------------------------------------
def _winner_spec(outcome) -> str:
    return json.dumps([outcome.technique, outcome.spec_payload()], sort_keys=True)


def _forecast_is_finite(outcome, horizon: int = 24) -> bool:
    kwargs = {}
    spec = outcome.best_spec
    if spec is not None and spec.exog_columns and outcome.shock_calendar is not None:
        kwargs["exog_future"] = outcome.shock_calendar.future_matrix(horizon)[
            :, : spec.exog_columns
        ]
    forecast = outcome.model.forecast(horizon, **kwargs)
    return _finite(forecast.mean.values, forecast.lower.values, forecast.upper.values)


def select_oltp(seed: int, seconds: float, recorder=None) -> Result:
    """Repeated passes of ``auto_select`` over Experiment Two's series.

    A pass selects every series in ``inputs.SELECT_SERIES`` once; passes
    repeat until ``seconds`` have elapsed, so the series mix of a run does
    not depend on how fast the program is. A series seen again must get
    the same winner spec.
    """
    import repro.selection as selection

    setup_s, setup_wall_s, series = _median_setup(lambda: inputs.select_inputs(seed))
    config = selection.AutoConfig(n_jobs=1)
    if recorder is not None:
        recorder.hook_functions()

    result = Result(setup_s, setup_wall_s)
    winners: dict[str, str] = {}
    ratios: dict[str, float] = {}
    counts: dict[str, int] = {}
    with _Timed(result) as timed:
        while not result.op_seconds or timed.elapsed() < seconds:
            for item in series:
                if recorder is not None:
                    recorder.op = len(result.op_seconds)
                outcome = timed.op(selection.auto_select, item.series, config=config)
                spec = _winner_spec(outcome)
                if not (math.isfinite(outcome.test_rmse) and _forecast_is_finite(outcome)):
                    result.fail(f"{item.name}: non-finite winner RMSE or forecast")
                elif winners.setdefault(item.name, spec) != spec:
                    result.fail(f"{item.name}: winner changed on a repeat ({spec})")
                ratios.setdefault(item.name, outcome.test_rmse / item.naive_rmse)
                for key in ("candidates_fitted", "candidates_failed", "candidates_pruned"):
                    counts[key] = counts.get(key, 0) + outcome.trace.counters.get(key, 0)
    if recorder is not None:
        recorder.unhook()

    result.work = float(len(result.op_seconds))
    result.work_seconds = sum(result.op_seconds)
    quality = math.exp(sum(math.log(r) for r in ratios.values()) / len(ratios))
    result.counts = {"selections": len(result.op_seconds), **counts}
    result.layer = {"selection.rmse_vs_naive": quality}
    result.detail = {
        "select_s_per_series": result.work_seconds / result.work,
        "select_rmse_vs_naive": quality,
        "series": len(result.op_seconds),
        "winners": winners,
    }
    return result


# ---------------------------------------------------------------------------
# stream-serve
# ---------------------------------------------------------------------------
#: Hours of history a key needs before its initial selection (one week).
MIN_OBSERVATIONS = 168


def _stream_counters(runtime) -> dict[str, int]:
    merged = dict(runtime.trace.counters)
    for counters in (runtime.aggregator.counters, runtime.bus.counters, runtime.alerts.counters):
        merged.update(counters)
    return merged


def _alert_outcomes(data: inputs.StreamInput, events) -> tuple[list[float], int]:
    """Lead hours of warned crossings, and the number of missed crossings.

    A crossing is warned when a RAISED alert for the key is still active
    at the start of the first hour whose mean exceeds the threshold.
    """
    by_key: dict[str, list] = {}
    for event in events:
        by_key.setdefault(event.key.workload, []).append(event)
    leads, misses = [], 0
    for k in data.crossing_keys:
        crossing_at = data.crossing_hour[k] * inputs.HOUR
        raised_at = None
        for event in by_key.get(data.instances[k], []):
            if event.at >= crossing_at:
                break
            if event.kind.value == "raised":
                raised_at = event.at
            elif event.kind.value == "recovered":
                raised_at = None
        if raised_at is None:
            misses += 1
        else:
            leads.append((crossing_at - raised_at) / inputs.HOUR)
    return leads, misses


def stream_serve(
    seed: int,
    seconds: float,
    recorder=None,
    n_keys: int = 128,
    warm_hours: int = 171,
    serve_hours: int = 132,
) -> Result:
    """Closed-loop replay of 15-minute polls through one ``StreamRuntime``.

    Set-up generates the estate and replays the warm-up hours, in which
    every key makes its initial selection. The timed phase hands the next
    delivery-ordered 64-poll batch to ``ingest_batch`` as soon as the
    previous tick returns. Its length is fixed by the inputs, not by
    ``seconds``, so the alert ground truth is a function of the seed.
    """
    from repro.agent.repository import MetricsRepository
    from repro.selection import AutoConfig
    from repro.service import EstatePlanner, SelectionCache
    from repro.stream import StreamConfig, StreamRuntime

    setup = hostspeed.Sampler()
    with setup:
        t_setup = time.perf_counter()
        data = inputs.stream_inputs(seed, n_keys, warm_hours, serve_hours)
        runtime = StreamRuntime(
            planner=EstatePlanner(
                config=AutoConfig(technique="hes", n_jobs=1), cache=SelectionCache()
            ),
            config=StreamConfig(
                thresholds={"cpu": inputs.THRESHOLD},
                min_observations=MIN_OBSERVATIONS,
                seed=seed,
                planning=True,
            ),
            repository=MetricsRepository(),
        )
        batch = runtime.config.batch_polls
        warm = runtime.delivery_order(data.samples(0, warm_hours))
        serve = runtime.delivery_order(data.samples(warm_hours, warm_hours + serve_hours))
        chunks = [serve[lo : lo + batch] for lo in range(0, len(serve), batch)]
        for lo in range(0, len(warm), batch):
            runtime.ingest_batch(warm[lo : lo + batch])
        setup_wall_s = time.perf_counter() - t_setup - setup.spent

    result = Result(setup.adjust(setup_wall_s), setup_wall_s)
    before = _stream_counters(runtime)
    if before.get("stream_initial_selections", 0) != n_keys:
        result.fail("warm-up did not select every key")
    if recorder is not None:
        recorder.hook_functions()
        recorder.hook_runtime(runtime)
    ticks = result.op_seconds
    tick = None
    with _Timed(result) as timed:
        for i, chunk in enumerate(chunks):
            if recorder is not None:
                recorder.op = i
            tick = timed.op(runtime.ingest_batch, chunk)
    if recorder is not None:
        recorder.unhook()
    after = _stream_counters(runtime)
    result.work, result.work_seconds = float(len(serve)), sum(ticks)

    # -- output checks ---------------------------------------------------
    planner = runtime.planner
    entries = [planner.entry(key) for key in planner.keys()]
    graded = [e.key for e in entries if e.status.name == "MODELLED" and e.threshold is not None]
    missing = [key for key in graded if key not in tick.advisories]
    if not graded or missing:
        result.fail(f"{len(missing)} of {len(graded)} modelled keys lack a last-tick advisory")
    failed_runs = runtime.telemetry().faults.get("selection_runs_failed", 0)
    if failed_runs or any(e.status.name == "FAILED" for e in entries):
        result.fail(f"selection failed ({failed_runs} failed runs)")
    runtime.finish()
    hours = warm_hours + serve_hours
    short = [
        name for name in data.instances
        if runtime.aggregator.windows_closed(name, "cpu") != hours
    ]
    if short:
        result.fail(f"{len(short)} keys did not close one window per hour")
    bus = runtime.bus.counters
    accounted = sum(
        bus.get(key, 0)
        for key in (
            "samples_accepted",
            "samples_duplicate",
            "samples_late_dropped",
            "samples_rejected_backpressure",
        )
    )
    if accounted != len(warm) + len(serve):
        result.fail(f"polls accounted {accounted} != delivered {len(warm) + len(serve)}")

    # -- alert quality against the generated ground truth ------------------
    leads, misses = _alert_outcomes(data, runtime.events)
    crossers = len(data.crossing_keys)
    quiet = set(data.instances) - {data.instances[k] for k in data.crossing_keys}
    alarmed = {e.key.workload for e in runtime.events if e.kind.value == "raised"}
    lead_h = float(median(leads)) if leads else 0.0
    miss_rate = misses / crossers if crossers else 0.0

    def delta(key: str) -> int:
        return after.get(key, 0) - before.get(key, 0)

    windows = delta("windows_closed")
    computed = delta("stream_advisories_graded") - delta("stream_advisory_cache_hits")
    refits = delta("stream_refits_triggered")
    result.counts = {
        "ticks": len(ticks),
        "windows": windows,
        "advisories_computed": computed,
        "repository_rows": delta("repository_windows_persisted")
        + delta("repository_models_persisted"),
        "selection_runs": delta("stream_selection_runs"),
        "refits": refits,
        "blueprints_scored": delta("plan_blueprints_scored"),
        "alerts_raised": delta("alerts_raised"),
    }
    result.layer = {
        "stream.scheduler.grades_per_window": computed / windows if windows else 0.0,
        "stream.alerts.lead_h": lead_h,
        "stream.alerts.miss_rate": miss_rate,
    }
    tick_ms = np.asarray(ticks) * 1e3
    result.detail = {
        "stream_samples_per_s": result.work / result.work_seconds,
        "tick_p50_ms": float(np.percentile(tick_ms, 50)),
        "tick_p90_ms": float(np.percentile(tick_ms, 90)),
        "tick_p99_ms": float(np.percentile(tick_ms, 99)),
        "tick_samples": len(ticks),
        "alert_lead_h": lead_h,
        "alert_miss_rate": miss_rate,
        "crossing_keys": crossers,
        "alerted_quiet_share": len(alarmed & quiet) / len(quiet),
        "keys": n_keys,
        "counts": result.counts,
    }
    return result


# ---------------------------------------------------------------------------
# plan-estate
# ---------------------------------------------------------------------------
#: A 1000-instance plan takes 9-17 s of wall time on a 2-CPU host whose
#: speed swings up to 2x; the median of at least two is reported.
MIN_PLANS = 2


def plan_estate(seed: int, seconds: float, recorder=None, n: int = 1000) -> Result:
    """Repeated ``plan_estate(demands)`` on one seeded estate.

    Plans repeat until ``seconds`` have elapsed and at least MIN_PLANS ran.
    """
    import repro.planner as planner

    setup_s, setup_wall_s, demands = _median_setup(lambda: inputs.plan_inputs(seed, n))
    names = sorted(d.instance for d in demands)
    if recorder is not None:
        recorder.hook_functions()

    result = Result(setup_s, setup_wall_s)
    first_json = None
    plan = None
    with _Timed(result) as timed:
        while len(result.op_seconds) < MIN_PLANS or timed.elapsed() < seconds:
            if recorder is not None:
                recorder.op = len(result.op_seconds)
            plan = timed.op(planner.plan_estate, demands)
            covered = sorted(name for c in plan.choices for name in c.blueprint.instances)
            text = plan.to_json()
            first_json = first_json or text
            if covered != names:
                result.fail("plan does not cover every instance exactly once")
            elif text != plan.to_json() or text != first_json:
                result.fail("plan JSON is not byte-reproducible")
    if recorder is not None:
        recorder.unhook()

    result.work = float(len(result.op_seconds))
    result.work_seconds = sum(result.op_seconds)
    result.counts = {"plans": len(result.op_seconds), "choices": len(plan.choices)}
    result.layer = {"planner.composite": plan.total_composite}
    result.detail = {
        "plan_s": result.work_seconds / result.work,
        "plan_composite": plan.total_composite,
        "plans": len(result.op_seconds),
        "instances": n,
        "consolidations": sum(len(c.blueprint.instances) > 1 for c in plan.choices),
    }
    return result


WORKLOADS = {
    "select-oltp": select_oltp,
    "stream-serve": stream_serve,
    "plan-estate": plan_estate,
}
