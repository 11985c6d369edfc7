"""Run telemetry: what the engine did, stage by stage.

The production system in Section 8 is operated, not just run — someone
has to answer "why did this workload's selection take 40 s?" and "how
many of the 660 candidates actually converged?". :class:`RunTrace` is the
engine's flight recorder: stage wall-times, candidate fit/fail/prune
counters, per-worker task counts and the winner's lineage (which branch
and which augmentation produced the final model). It travels on
:class:`~repro.selection.auto.SelectionOutcome` and
:class:`~repro.service.estate.EstateReport`, and the CLI renders its
summary lines.

The recorder is deliberately lightweight: appending events and bumping
counters, no I/O, no globals — cheap enough to stay enabled in
production paths.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["StageEvent", "RunTrace"]


@dataclass(frozen=True)
class StageEvent:
    """One timed span of engine work."""

    name: str
    seconds: float
    detail: str = ""


@dataclass
class RunTrace:
    """Accumulated telemetry for one engine run.

    Attributes
    ----------
    events:
        Timed stages in execution order (a stage name may repeat, e.g.
        ``score`` for the main grid and ``augment`` for the follow-up).
    counters:
        Monotonic counts: ``candidates_fitted``, ``candidates_failed``,
        ``candidates_pruned``, ``workloads_modelled``, … The broadcast
        data plane adds ``bytes_broadcast`` / ``bytes_tasks`` (payload
        bytes shipped once per fingerprint vs. serialized task-arg
        bytes) and ``payload_broadcasts`` / ``payload_broadcast_hits``;
        candidate racing adds ``racing_rung<N>_population``,
        ``racing_rung_fits`` / ``racing_full_fits``,
        ``candidates_pruned_by_racing`` and ``warm_start_hits``; the
        estate selection cache adds ``selection_cache_hits`` /
        ``selection_cache_misses``.
    worker_tasks:
        Tasks completed per worker id — the utilisation picture of the
        shared pool (``{"serial": n}`` for in-process runs).
    lineage:
        Human-readable decision trail for the winning model, oldest
        entry first.
    info:
        Small string facts about the run environment — e.g.
        ``kernel_backend`` (always ``"numpy"``), recorded by the
        pipeline alongside the ``kernel_<name>_calls`` / ``_us`` counters.
    faults:
        The fault plane's block: injected faults by kind
        (``fault_<kind>`` / ``faults_injected`` from
        :class:`~repro.faults.plan.FaultInjector`), retry activity
        (``<name>_retries`` / ``_recoveries`` / ``_exhausted`` /
        ``_wait_ms`` from :class:`~repro.faults.retry.RetryRunner`),
        executor resilience (``tasks_retried`` / ``tasks_recovered`` /
        ``pools_rebuilt``) and scheduler degradation
        (``degraded_advisories``, ``degraded_cached_model``,
        ``degraded_seasonal_naive``, ``selection_runs_failed``). Kept
        separate from ``counters`` so the happy path renders no fault
        noise and chaos runs can diff the block byte for byte.
    """

    events: list[StageEvent] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    worker_tasks: dict[str, int] = field(default_factory=dict)
    lineage: list[str] = field(default_factory=list)
    info: dict[str, str] = field(default_factory=dict)
    faults: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def stage(self, name: str, detail: str = ""):
        """Time a block of work as one named stage."""
        started = time.perf_counter()
        try:
            yield self
        finally:
            self.events.append(
                StageEvent(name=name, seconds=time.perf_counter() - started, detail=detail)
            )

    def add_stage(self, name: str, seconds: float, detail: str = "") -> None:
        """Record a stage timed externally (e.g. inside a worker)."""
        self.events.append(StageEvent(name=name, seconds=float(seconds), detail=detail))

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(n)

    def fault(self, key: str, n: int = 1) -> None:
        """Bump one fault-plane counter (see the ``faults`` attribute)."""
        self.faults[key] = self.faults.get(key, 0) + int(n)

    def absorb_faults(self, counters: dict[str, int] | None) -> None:
        """Fold a component's fault counters (injector, retry runner,
        executor) into the ``faults`` block."""
        for key, value in (counters or {}).items():
            self.fault(key, value)

    def record_worker(self, worker: str, n: int = 1) -> None:
        self.worker_tasks[worker] = self.worker_tasks.get(worker, 0) + int(n)

    def record_task_reports(self, reports) -> None:
        """Absorb executor :class:`~repro.engine.executor.TaskReport`s."""
        for report in reports:
            self.record_worker(report.worker)
            if report.timed_out:
                self.count("tasks_timed_out")

    def note(self, message: str) -> None:
        """Append one lineage entry (decision trail of the winner)."""
        self.lineage.append(message)

    def set_info(self, key: str, value: str) -> None:
        """Record one environment fact (e.g. the active kernel backend)."""
        self.info[key] = str(value)

    def merge(self, other: "RunTrace", prefix: str = "") -> None:
        """Fold another trace into this one (estate ← per-workload)."""
        for event in other.events:
            name = f"{prefix}{event.name}" if prefix else event.name
            self.events.append(StageEvent(name=name, seconds=event.seconds, detail=event.detail))
        for key, value in other.counters.items():
            self.count(key, value)
        for worker, value in other.worker_tasks.items():
            self.record_worker(worker, value)
        for key, value in other.info.items():
            self.info.setdefault(key, value)
        for key, value in other.faults.items():
            self.fault(key, value)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def stage_seconds(self) -> dict[str, float]:
        """Total seconds per stage name, in first-seen order."""
        out: dict[str, float] = {}
        for event in self.events:
            out[event.name] = out.get(event.name, 0.0) + event.seconds
        return out

    def total_seconds(self) -> float:
        return sum(event.seconds for event in self.events)

    def summary_lines(self) -> list[str]:
        """Compact rendering for the CLI / logs."""
        lines = []
        stages = self.stage_seconds()
        if stages:
            timing = " | ".join(f"{name} {secs:.2f}s" for name, secs in stages.items())
            lines.append(f"stages: {timing} (total {self.total_seconds():.2f}s)")
        plain = {k: v for k, v in self.counters.items() if not k.startswith("kernel_")}
        if plain:
            counts = " ".join(f"{k}={v}" for k, v in sorted(plain.items()))
            lines.append(f"counts: {counts}")
        kernel_line = self._kernel_line()
        if kernel_line:
            lines.append(kernel_line)
        if self.faults:
            detail = " ".join(f"{k}={v}" for k, v in sorted(self.faults.items()))
            lines.append(f"faults: {detail}")
        if self.worker_tasks:
            busiest = sorted(self.worker_tasks.items(), key=lambda kv: -kv[1])
            util = " ".join(f"{worker}:{n}" for worker, n in busiest)
            lines.append(f"workers: {util}")
        if self.lineage:
            lines.append("lineage: " + " -> ".join(self.lineage))
        return lines

    def _kernel_line(self) -> str:
        """One line of kernel activity, or "" when none was traced."""
        calls = {
            key[len("kernel_") : -len("_calls")]: value
            for key, value in self.counters.items()
            if key.startswith("kernel_") and key.endswith("_calls") and value
        }
        if not calls:
            return ""
        backend = self.info.get("kernel_backend", "?")
        total_us = sum(
            value
            for key, value in self.counters.items()
            if key.startswith("kernel_") and key.endswith("_us")
        )
        busiest = sorted(calls.items(), key=lambda kv: -kv[1])
        detail = " ".join(f"{name}:{n}" for name, n in busiest)
        return f"kernels[{backend}]: {detail} ({total_us / 1e6:.2f}s)"
