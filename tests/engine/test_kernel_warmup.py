"""Kernel-counter transport: every dispatch reaches the run trace once.

The contract under test (see ``repro.engine.kernels``): pool workers
report their kernel-counter deltas with each completed chunk, measured
from a baseline taken in the worker initializer; in-process work is
charged by the pipeline's before/after snapshot; and the trace renders
the counters as one ``kernels[numpy]: …`` summary line.
"""

import numpy as np
import pytest

from repro.core import Frequency, TimeSeries
from repro.engine import PoolExecutor, RunTrace, SerialExecutor
from repro.engine import kernels as engine_kernels
from repro.models import kernels
from repro.selection import CandidateSpec, evaluate_grid


@pytest.fixture
def fresh_kernel_counters():
    """Zero the process-wide kernel counters."""
    kernels._reset_for_tests()


def _workload() -> tuple[TimeSeries, TimeSeries]:
    rng = np.random.default_rng(99)
    t = np.arange(180)
    values = 40.0 + 0.05 * t + 6.0 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 1.0, t.size)
    series = TimeSeries(values, Frequency.HOURLY, name="warmup")
    return series.split(150)


SPECS = [
    CandidateSpec(order=(1, 0, 1)),
    CandidateSpec(order=(2, 1, 1)),
    CandidateSpec(order=(1, 1, 2)),
    CandidateSpec(order=(3, 0, 1)),
]


def test_active_backend_is_numpy():
    # The benchmark harness records this in its environment line.
    assert engine_kernels.active_backend() == "numpy"


def test_pool_worker_counters_reach_trace(fresh_kernel_counters):
    train, test = _workload()
    trace = RunTrace()
    with PoolExecutor(max_workers=2) as pool:
        results = evaluate_grid(SPECS, train, test, maxiter=10, executor=pool, trace=trace)
    assert any(not r.failed for r in results)
    # The grid's forecast path went through the kernels and was counted.
    assert trace.counters.get("kernel_arma_forecast_calls", 0) > 0
    assert trace.counters.get("kernel_arma_forecast_us", 0) > 0


def test_forked_workers_do_not_report_inherited_counters():
    # Parent-process kernel work before the pool exists: a forked worker
    # inherits these counters and must not charge them to the grid.
    psi = np.array([1.0, 0.5, 0.25])
    for _ in range(500):
        kernels.bootstrap_deviations(psi, np.ones((2, 3)))
    train, test = _workload()
    trace = RunTrace()
    with PoolExecutor(max_workers=2) as pool:
        evaluate_grid(SPECS, train, test, maxiter=10, executor=pool, trace=trace)
    assert trace.counters.get("kernel_arma_forecast_calls", 0) > 0
    assert trace.counters.get("kernel_bootstrap_deviations_calls", 0) == 0


def test_serial_counters_flow_through_pipeline_snapshot(fresh_kernel_counters):
    # evaluate_grid only absorbs worker-reported deltas; in-process kernel
    # work is charged by run_pipeline's before/after snapshot instead.
    before = engine_kernels.snapshot()
    train, test = _workload()
    evaluate_grid(SPECS, train, test, maxiter=10, executor=SerialExecutor())
    moved = engine_kernels.delta(before, engine_kernels.snapshot())
    trace = RunTrace()
    engine_kernels.absorb_delta(trace, moved)
    assert trace.counters.get("kernel_arma_forecast_calls", 0) > 0


def test_trace_renders_kernel_summary_line(fresh_kernel_counters):
    trace = RunTrace()
    trace.set_info("kernel_backend", engine_kernels.active_backend())
    trace.count("kernel_arma_forecast_calls", 12)
    trace.count("kernel_arma_forecast_us", 3400)
    lines = trace.summary_lines()
    kernel_lines = [ln for ln in lines if ln.startswith("kernels[")]
    assert kernel_lines == ["kernels[numpy]: arma_forecast:12 (0.00s)"]
    # Kernel counters stay out of the generic counts line.
    assert not any("kernel_" in ln for ln in lines if not ln.startswith("kernels["))
