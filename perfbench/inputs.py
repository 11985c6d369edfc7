"""Seeded inputs for the three workloads, plus the ground truth kept from them.

Every input is a pure function of the seed (select-oltp's series ignore
it; see :func:`select_inputs`). The program under test receives only the
generated inputs (series, polls, demands); the ground truth the output
checks grade against (seasonal-naive baselines, each key's first
threshold crossing) stays on the benchmark's side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

HOUR = 3600.0
POLL = 900.0
POLLS_PER_HOUR = 4

# ---------------------------------------------------------------------------
# select-oltp: Experiment Two's hourly series
# ---------------------------------------------------------------------------
#: One pass of select-oltp. Node cdbm011 carries the 6-hourly backups, so
#: its logical_iops series takes the exogenous branch and its cpu series
#: the plain seasonal grid.
SELECT_SERIES = (("cdbm011", "cpu"), ("cdbm011", "logical_iops"))
NAIVE_PERIOD = 24


@dataclass(frozen=True)
class SelectInput:
    name: str
    series: object  # repro TimeSeries
    naive_rmse: float


def seasonal_naive_rmse(series, period: int = NAIVE_PERIOD) -> float:
    """Test RMSE of the seasonal-naive forecast on the Table 1 split."""
    train, test = series.train_test_split()
    history = np.asarray(train.values, dtype=float)[-period:]
    actual = np.asarray(test.values, dtype=float)
    forecast = np.resize(history, actual.size)
    return float(np.sqrt(np.mean((actual - forecast) ** 2)))


def select_inputs(seed: int) -> list[SelectInput]:
    """Experiment Two as the paper configures it; one entry per pass series.

    ``seed`` does not reach this workload's data. Re-simulating Experiment
    Two under another seed changes the grid the selection walks, and with
    it the work: one logical_iops series took 11 s under one seed and 24 s
    under the next. Two series per run cannot average that out, so every
    run selects on the same, paper-default simulation and run-to-run
    spread is measurement noise only.
    """
    from repro.core.preprocessing import interpolate_missing
    from repro.workloads.oltp import OltpExperiment, generate_oltp_run

    del seed
    run = generate_oltp_run(OltpExperiment())
    out = []
    for instance, metric in SELECT_SERIES:
        series = interpolate_missing(getattr(run.instances[instance], metric))
        out.append(
            SelectInput(f"{instance}.{metric}", series, seasonal_naive_rmse(series))
        )
    return out


# ---------------------------------------------------------------------------
# stream-serve: a 128-instance estate of OLTP-like cpu polls
# ---------------------------------------------------------------------------
#: The alerting threshold every key is graded against. Per-key thresholds
#: are applied by scaling each key's trace (``value * THRESHOLD / tau``),
#: which is the same problem as grading the raw trace against ``tau``.
THRESHOLD = 80.0


@dataclass
class StreamInput:
    instances: list[str]
    #: Scaled poll values, shape (keys, polls); poll ``i`` is at ``i * POLL``.
    values: np.ndarray
    #: Per key, the first hour (index from 0) whose mean exceeds
    #: THRESHOLD, or -1. Only timed-phase hours can cross.
    crossing_hour: np.ndarray

    @property
    def crossing_keys(self) -> list[int]:
        return [k for k in range(len(self.instances)) if self.crossing_hour[k] >= 0]

    def samples(self, lo_hour: int, hi_hour: int) -> list:
        """Agent polls for hours ``[lo_hour, hi_hour)``, time-major order."""
        from repro.agent.agent import AgentSample

        lo, hi = lo_hour * POLLS_PER_HOUR, hi_hour * POLLS_PER_HOUR
        block = self.values[:, lo:hi]
        return [
            AgentSample(name, "cpu", (lo + j) * POLL, value)
            for j, column in enumerate(block.T.tolist())
            for name, value in zip(self.instances, column)
        ]


def stream_inputs(
    seed: int, n_keys: int = 128, warm_hours: int = 171, serve_hours: int = 132
) -> StreamInput:
    """OLTP-like cpu traces: daily cycle, login surge, growth, AR noise, shifts.

    About one key in three gets a threshold that its own hourly series
    first exceeds inside the timed phase; the rest get 15% headroom over
    their whole-run maximum.
    """
    rng = np.random.default_rng(seed)
    hours = warm_hours + serve_hours
    n = hours * POLLS_PER_HOUR
    t = np.arange(n) / POLLS_PER_HOUR  # hours since start
    hod = t % 24.0
    raw = np.empty((n_keys, n))
    for k in range(n_keys):
        base = rng.uniform(20.0, 45.0)
        amplitude = rng.uniform(4.0, 14.0)
        peak = rng.uniform(10.0, 16.0)
        growth = rng.uniform(0.0, 1.2) / 24.0
        surge = rng.uniform(0.0, 8.0)
        x = base + amplitude * np.cos(2 * np.pi * (hod - peak) / 24.0) + growth * t
        x += surge * ((hod >= 7.0) & (hod < 11.0))
        x += lfilter([1.0], [1.0, -0.6], rng.normal(0.0, 1.2, n))
        if rng.random() < 0.2:  # a level shift inside the timed phase
            at = int(rng.uniform((warm_hours + 24) * POLLS_PER_HOUR, n - 96))
            x[at:] += rng.uniform(4.0, 10.0)
        raw[k] = np.maximum(x, 0.5)
    hourly_raw = raw.reshape(n_keys, hours, POLLS_PER_HOUR).mean(axis=2)

    crossing = np.full(n_keys, -1)
    scale = np.empty(n_keys)
    for k in range(n_keys):
        h = hourly_raw[k]
        if k % 3 == 0:
            due = warm_hours + int(rng.uniform(24, serve_hours - 24))
            tau = float(h[:due].max()) * 1.001
        else:
            tau = float(h.max()) * 1.15
        scale[k] = THRESHOLD / tau
    values = raw * scale[:, None]
    hourly = values.reshape(n_keys, hours, POLLS_PER_HOUR).mean(axis=2)
    for k in range(n_keys):
        above = np.nonzero(hourly[k] > THRESHOLD)[0]
        if above.size:
            crossing[k] = int(above[0])
    return StreamInput(
        instances=[f"db{k:03d}" for k in range(n_keys)],
        values=values,
        crossing_hour=crossing,
    )


# ---------------------------------------------------------------------------
# plan-estate: seeded demands
# ---------------------------------------------------------------------------
PLAN_HORIZON = 24


def plan_inputs(seed: int, n: int = 1000) -> list:
    """About 1/3 breaching and 1/4 in 8-instance racks (consolidation groups)."""
    from repro.planner import DEFAULT_CATALOG, ForecastBand, InstanceDemand

    rng = np.random.default_rng(seed)
    steps = np.arange(PLAN_HORIZON, dtype=float)
    demands = []
    for i in range(n):
        base = 8.0 + 18.0 * rng.random()
        breaching = i % 3 == 0
        if breaching:  # the forecast climbs through the capacity
            base = 24.0 + 12.0 * rng.random()
        mean = base + 2.0 * np.sin(steps / 4.0 + i) + 0.1 * steps * breaching
        demands.append(
            InstanceDemand(
                instance=f"db{i:04d}",
                tier=DEFAULT_CATALOG[0],
                bands={"cpu": ForecastBand(mean=mean, upper=mean + 3.0)},
                capacities={"cpu": 26.0},
                group=f"rack{i // 8:03d}" if i % 4 == 0 else None,
            )
        )
    return demands
