"""Engine-side kernel registry: counter transport across processes.

:mod:`repro.models.kernels` owns the numeric recursions and their
per-process call/time counters; this module is the thin seam that the
execution engine uses to talk to them without the models layer ever
importing the engine. :func:`snapshot` / :func:`delta` /
:func:`absorb_delta` move the monotonic kernel counters across process
boundaries and fold them into :class:`~repro.engine.telemetry.RunTrace`
counters, where they surface through ``CapacityPlanner.telemetry()`` and
the CLI.

Counting policy (who absorbs what, so nothing is counted twice):

* ``run_pipeline`` snapshots the *parent* process around the whole
  selection and absorbs that delta — this captures all in-process kernel
  work, including everything a :class:`SerialExecutor` runs.
* Pool workers report their delta piggybacked on each completed chunk;
  :class:`PoolExecutor` accumulates those, and the grid scorer drains
  them into the active trace (they are invisible to the parent snapshot).
  A worker's baseline is the snapshot taken in its initializer, so a
  forked worker never re-reports the counters it inherited.

The registry carries a batch-size dimension: every batched kernel in
:data:`BATCHED_KERNEL_NAMES` reports ``kernel_<name>_rows`` next to the
usual ``_calls``/``_seconds`` — rows ÷ calls is the realised mean cohort
size, the number the scheduler's batched dispatch exists to maximise.
"""

from __future__ import annotations

from ..models import kernels as _kernels
from ..models.kernels import BATCHED_KERNEL_NAMES, KERNEL_NAMES

__all__ = [
    "active_backend",
    "snapshot",
    "delta",
    "absorb_delta",
    "KERNEL_NAMES",
    "BATCHED_KERNEL_NAMES",
]


def active_backend() -> str:
    """Name of the kernel implementation, recorded in run traces."""
    return "numpy"


def snapshot() -> dict[str, float]:
    """Monotonic kernel counters of *this* process (see ``stats_snapshot``)."""
    return _kernels.stats_snapshot()


def delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """Counter movement between two snapshots (keys with no movement drop out)."""
    out: dict[str, float] = {}
    for key, value in after.items():
        moved = value - before.get(key, 0.0)
        if moved:
            out[key] = moved
    return out


def absorb_delta(trace, moved: dict[str, float]) -> None:
    """Fold a counter delta into a :class:`RunTrace` (rounded to ints)."""
    if trace is None:
        return
    for key, value in moved.items():
        n = int(round(value))
        if n:
            trace.count(key, n)
