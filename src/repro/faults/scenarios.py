"""Named chaos scenarios: fault plans run against the synthetic estate.

Each :class:`ChaosScenario` pairs a :class:`~repro.faults.plan.FaultPlan`
with the streaming deployment it attacks: a simulated OLTP cluster is
polled by a hooked :class:`~repro.agent.agent.MonitoringAgent`, ingested
into a hooked :class:`~repro.agent.repository.MetricsRepository`, then
replayed through a :class:`~repro.shard.runtime.ShardedRuntime` whose
shard executors carry the scenario's :class:`~repro.engine.ExecutionPolicy`.
The outcome is a :class:`SurvivalReport`: did the runtime keep emitting
advisories (first-class or degraded) through the abuse?

Everything is seed-deterministic — the workload, the agent, the fault
plan and the delivery jitter all derive from one ``seed`` — so the same
``(scenario, seed)`` produces a byte-identical report, which is what the
CI ``chaos-smoke`` job asserts. Timings and kernel counters are excluded
from the report for exactly that reason.

``REPRO_REDUCED_GRID=1`` shrinks the simulated span (CI-sized runs).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from ..exceptions import DataError
from .plan import FaultInjector, FaultKind, FaultPlan, FaultRule

__all__ = ["ChaosScenario", "SurvivalReport", "SCENARIOS", "run_scenario"]


@dataclass(frozen=True)
class ChaosScenario:
    """One named failure drill.

    Attributes
    ----------
    name / description:
        CLI identity (``repro chaos --scenario <name>``).
    rules:
        The fault plan's rules (the plan seed is supplied at run time).
    task_retries / retry_timed_out:
        The :class:`~repro.engine.ExecutionPolicy` the scenario's
        executor runs under.
    days:
        Simulated OLTP days streamed (before any reduced-grid shrink).
    min_observations:
        Hourly windows before the first selection.
    thresholds:
        Capacity thresholds graded during the run.
    """

    name: str
    description: str
    rules: tuple[FaultRule, ...]
    task_retries: int = 1
    retry_timed_out: bool = False
    days: float = 6.0
    min_observations: int = 96
    thresholds: dict[str, float] = field(default_factory=lambda: {"cpu": 26.0})


SCENARIOS: dict[str, ChaosScenario] = {
    s.name: s
    for s in (
        ChaosScenario(
            name="agent-flap",
            description="agent poll attempts fail transiently and samples go missing",
            rules=(
                FaultRule(
                    site="agent.poll",
                    kind=FaultKind.TRANSIENT_ERROR,
                    probability=0.5,
                ),
                FaultRule(
                    site="agent.sample",
                    kind=FaultKind.DROP_SAMPLE,
                    probability=0.01,
                ),
            ),
        ),
        ChaosScenario(
            name="nan-burst",
            description="delivery corrupts readings: NaN bursts and garbage values",
            rules=(
                FaultRule(
                    site="ingest.deliver",
                    kind=FaultKind.NAN_BURST,
                    every=400,
                    param=8,
                ),
                FaultRule(
                    site="ingest.deliver",
                    kind=FaultKind.CORRUPT_VALUE,
                    probability=0.002,
                    param=1000.0,
                ),
            ),
        ),
        ChaosScenario(
            name="repo-lock",
            description="repository writes hit 'database is locked' contention",
            rules=(
                FaultRule(
                    site="repository.write",
                    kind=FaultKind.TRANSIENT_ERROR,
                    every=1,
                    limit=3,
                ),
            ),
        ),
        ChaosScenario(
            name="slow-selection",
            description="selection tasks miss their deadlines",
            rules=(
                FaultRule(
                    site="executor.submit",
                    kind=FaultKind.SLOW_CALL,
                    probability=0.4,
                ),
            ),
        ),
        ChaosScenario(
            name="worker-crash",
            description="pool workers die under selection tasks",
            rules=(
                FaultRule(
                    site="executor.submit",
                    kind=FaultKind.WORKER_CRASH,
                    every=3,
                ),
            ),
            task_retries=2,
        ),
        ChaosScenario(
            name="blackout",
            description="every selection task fails: pure degradation-ladder run",
            rules=(
                FaultRule(
                    site="executor.submit",
                    kind=FaultKind.TRANSIENT_ERROR,
                    every=1,
                ),
            ),
            task_retries=0,
        ),
    )
}


@dataclass(frozen=True)
class SurvivalReport:
    """What a chaos run did — deterministic fields only.

    ``survived`` means the runtime completed, produced at least one
    advisory, and never fell silent afterwards: every tick from the
    first advisory onward carried at least one (first-class or
    DEGRADED) advisory.
    """

    scenario: str
    seed: int
    survived: bool
    ticks: int
    advisory_ticks: int
    degraded_ticks: int
    alerts_raised: int
    faults: dict[str, int]
    counters: dict[str, int]
    notes: tuple[str, ...] = ()

    def render(self) -> str:
        lines = [
            f"chaos scenario: {self.scenario} (seed {self.seed})",
            f"  survived: {'yes' if self.survived else 'NO'}",
            f"  ticks: {self.ticks} ({self.advisory_ticks} with advisories, "
            f"{self.degraded_ticks} degraded)",
            f"  alerts raised: {self.alerts_raised}",
        ]
        if self.faults:
            lines.append("  faults:")
            lines.extend(f"    {k}={self.faults[k]}" for k in sorted(self.faults))
        if self.counters:
            lines.append("  counters:")
            lines.extend(f"    {k}={self.counters[k]}" for k in sorted(self.counters))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "scenario": self.scenario,
                "seed": self.seed,
                "survived": self.survived,
                "ticks": self.ticks,
                "advisory_ticks": self.advisory_ticks,
                "degraded_ticks": self.degraded_ticks,
                "alerts_raised": self.alerts_raised,
                "faults": self.faults,
                "counters": self.counters,
                "notes": list(self.notes),
            },
            sort_keys=True,
            indent=2,
        )


#: Counters copied into the report — deterministic by construction
#: (event counts, never wall-clock or kernel timings).
_REPORT_COUNTERS = (
    "samples_accepted",
    "samples_duplicate",
    "samples_late_dropped",
    "samples_nonfinite",
    "samples_out_of_order",
    "samples_rejected_backpressure",
    "windows_closed",
    "windows_partial",
    "windows_empty",
    "stream_ticks",
    "stream_selection_runs",
    "stream_initial_selections",
    "stream_refits_triggered",
    "stream_rolls_applied",
    "stream_drift_refits",
    "stream_advisories_graded",
    "alerts_raised",
    "alerts_escalated",
    "alerts_recovered",
    "workloads_modelled",
    "workloads_failed",
)


def _reduced() -> bool:
    return os.environ.get("REPRO_REDUCED_GRID", "") not in ("", "0")


def run_scenario(
    name: str,
    seed: int = 0,
    days: float | None = None,
    dispatch: str = "cohort",
    shards: int = 1,
    repo_backend: str = "sqlite",
    shard_processes: bool = False,
    planning: bool = False,
) -> SurvivalReport:
    """Run one named scenario end to end and grade its survival.

    The agent and the central repository run here, under an injector
    seeded with ``seed``; the stream runs on a
    :class:`~repro.shard.runtime.ShardedRuntime` of ``shards`` shards,
    each of which rebuilds its own injector and serial executor from
    the scenario's ``(rules, seed)``. Because the fault plan's RNG
    streams are independent per ``(seed, site)``, the driver-consumed
    sites (``agent.poll`` / ``agent.sample`` / ``repository.write``)
    and the worker-consumed sites (``ingest.deliver`` /
    ``executor.submit``) draw exactly the sequences one process would
    have drawn, so fault totals stay comparable at any N.
    ``shard_processes`` starts one worker process per shard instead of
    running every shard inline in this process. ``repo_backend``
    picks the central repository's storage engine (``sqlite`` or
    ``duckdb``).

    ``dispatch`` selects the scheduler's grading mode (``"cohort"`` or
    ``"per-key"``); reports are byte-identical across the two — only
    the counters in ``_REPORT_COUNTERS`` are copied in, and every one
    of them is dispatch-independent, which is exactly what the chaos
    parity suite asserts.

    ``planning`` turns the provisioning escalator on inside the runtime
    (:attr:`StreamConfig.planning`). Planning is observation-only — plan
    counters are deliberately absent from ``_REPORT_COUNTERS`` — so a
    report is byte-identical with it on or off, which the chaos planning
    parity test asserts.
    """
    # Leaf-layer imports: this module is reached lazily from the package
    # root precisely because these pull in the agent/stream/shard stack.
    from ..agent.agent import MonitoringAgent
    from ..agent.repository import MetricsRepository
    from ..engine.telemetry import RunTrace
    from ..shard import ShardedRuntime
    from ..stream.runtime import StreamConfig
    from ..workloads.oltp import OltpExperiment, generate_oltp_run

    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise DataError(
            f"unknown chaos scenario {name!r}; available: {sorted(SCENARIOS)}"
        ) from None

    span = float(days) if days is not None else scenario.days
    min_obs = scenario.min_observations
    if _reduced() and days is None:
        span = min(span, 5.0)
        min_obs = min(min_obs, 72)

    injector = FaultInjector(FaultPlan(rules=scenario.rules, seed=seed))
    stream_config = StreamConfig(
        thresholds=dict(scenario.thresholds),
        min_observations=min_obs,
        seed=seed,
        dispatch=dispatch,
        planning=planning,
    )
    sharded = ShardedRuntime(
        shards,
        config=stream_config,
        technique="hes",
        processes=shard_processes,
        fault_rules=scenario.rules,
        fault_seed=seed,
        task_retries=scenario.task_retries,
        retry_timed_out=scenario.retry_timed_out,
    )

    notes: list[str] = []
    agent = MonitoringAgent(seed=seed, injector=injector)
    repository = MetricsRepository.open(f"{repo_backend}://", injector=injector)

    completed = False
    all_ticks = []
    try:
        run = generate_oltp_run(OltpExperiment(days=span, seed=seed), hourly=False)
        samples = [
            s
            for s in agent.poll_run(run)
            if s.metric in scenario.thresholds
        ]
        # The central store takes the same battered feed; exhausted write
        # retries are survivable — the stream path keeps its own copy.
        try:
            repository.ingest(samples)
        except Exception as exc:
            notes.append(f"repository ingest gave up: {exc}")
        all_ticks = sharded.run(samples)
        all_ticks.append(sharded.finish())
        completed = True
    except Exception as exc:
        notes.append(f"runtime crashed: {type(exc).__name__}: {exc}")

    advisory_ticks = sum(1 for t in all_ticks if t.advisories)
    degraded_ticks = sum(
        1
        for t in all_ticks
        if any(a.degraded for a in t.advisories.values())
    )
    first = next(
        (i for i, t in enumerate(all_ticks) if t.advisories), None
    )
    continuous = first is not None and all(
        t.advisories for t in all_ticks[first:]
    )
    survived = completed and continuous

    try:
        trace = sharded.telemetry()
    except Exception as exc:
        trace = RunTrace()
        notes.append(f"shard telemetry unavailable: {type(exc).__name__}: {exc}")
    sharded.close()
    # The driver's injector (agent + repository sites) is not wired into
    # the runtime, so its injected-fault counts are folded in here; the
    # workers' injectors already arrived via shard telemetry.
    trace.absorb_faults(injector.counters)
    trace.absorb_faults(agent.fault_counters)
    trace.absorb_faults(repository.fault_counters)
    counters = {
        key: trace.counters[key]
        for key in _REPORT_COUNTERS
        if key in trace.counters
    }
    return SurvivalReport(
        scenario=scenario.name,
        seed=seed,
        survived=survived,
        ticks=len(all_ticks),
        advisory_ticks=advisory_ticks,
        degraded_ticks=degraded_ticks,
        alerts_raised=trace.counters.get("alerts_raised", 0),
        faults=dict(trace.faults),
        counters=counters,
        notes=tuple(notes),
    )
