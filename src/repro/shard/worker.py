"""One shard's serving slice, driveable inline or as a worker process.

A shard worker is not a new runtime — it *is* a
:class:`~repro.stream.runtime.StreamRuntime` (ingest bus, window
aggregator, cohort scheduler, alert manager) built from a picklable
:class:`ShardPlan`, plus the shard's own resources: a repository
partition (:meth:`~repro.agent.repository.MetricsRepository.open` on the
plan's URL, ``{shard}`` interpolated), a
:class:`~repro.engine.executor.SerialExecutor` carrying the plan's
:class:`~repro.engine.executor.ExecutionPolicy`, and a
:class:`~repro.faults.plan.FaultInjector` rebuilt from the plan's rules
and seed. Because per-site RNG streams depend only on ``(seed, site)``,
a worker's injector replays exactly the ``ingest.deliver`` /
``executor.submit`` fault sequences the single-process run would have
drawn — which is why ``repro chaos`` scenarios run unchanged under
``--shards N``.

:class:`ShardHandler` executes the command protocol; ``worker_main`` is
the ``multiprocessing`` entry point that loops it over a command queue.
The protocol is sequence-numbered request/reply over a pair of SPSC
queues: the control plane pipelines commands and relies on strict FIFO
per shard, so replies always arrive in send order.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field

from ..exceptions import DataError
from ..faults.plan import FaultInjector, FaultPlan, FaultRule
from ..service.estate import WorkloadKey
from ..service.thresholds import BreachPrediction
from ..stream.alerts import AlertEvent
from ..stream.runtime import StreamConfig, StreamRuntime
from ..stream.scheduler import RefitEvent

__all__ = ["ShardPlan", "ShardTick", "ShardHandler", "worker_main"]


@dataclass(frozen=True)
class ShardPlan:
    """Everything needed to rebuild one shard's runtime in any process.

    The plan is the *recipe*, not the state — it crosses the process
    boundary once at spawn, so every field must pickle. ``repo_url`` may
    contain a ``{shard}`` placeholder so each worker opens its own
    partition (``"sqlite:///var/db/part{shard}.db"``); ``None`` runs the
    shard without persistence.
    """

    shard: int
    n_shards: int
    config: StreamConfig
    technique: str = "hes"
    racing: bool = False
    #: Race day-profile candidates in this shard's selection grid (the
    #: config's own ``dayprofile`` flag governs the degradation ladder).
    dayprofile: bool = False
    repo_url: str | None = None
    fault_rules: tuple[FaultRule, ...] = ()
    fault_seed: int = 0
    task_retries: int | None = None
    retry_timed_out: bool = False


@dataclass(frozen=True)
class ShardTick:
    """One shard's picklable slice of a tick — what crosses the queue.

    The full :class:`~repro.stream.scheduler.SchedulerTick` carries the
    estate report (fitted models, traces); shipping that per tick would
    drown the queues. Advisories, alert transitions, refit events and
    plan proposals are everything the control plane merges and
    everything the parity contract is defined over.
    """

    advisories: dict[WorkloadKey, BreachPrediction] = field(default_factory=dict)
    events: tuple[AlertEvent, ...] = ()
    refits: tuple[RefitEvent, ...] = ()
    #: PlanProposal events the tick emitted (empty unless planning is on).
    proposals: tuple = ()


class ShardHandler:
    """Executes shard commands against this shard's own runtime.

    Used directly by the control plane in inline mode (``processes=False``
    — same protocol, zero IPC, the parity suite's fast path) and by
    ``worker_main`` in process mode. Ingest work is split-timed with
    :func:`time.process_time` (CPU seconds, immune to timesharing) so the
    shard-scaling bench can report partitioned capacity honestly even on
    a single-core box.
    """

    def __init__(self, plan: ShardPlan) -> None:
        from ..agent.repository import MetricsRepository
        from ..engine.executor import ExecutionPolicy, SerialExecutor
        from ..selection.auto import AutoConfig
        from ..service import EstatePlanner, SelectionCache

        self.plan = plan
        self.injector = (
            FaultInjector(FaultPlan(rules=plan.fault_rules, seed=plan.fault_seed))
            if plan.fault_rules
            else None
        )
        policy = (
            ExecutionPolicy(
                task_retries=plan.task_retries, retry_timed_out=plan.retry_timed_out
            )
            if plan.task_retries is not None
            else None
        )
        self.executor = (
            SerialExecutor(policy=policy, injector=self.injector)
            if policy is not None or self.injector is not None
            else None
        )
        self.repository = (
            MetricsRepository.open(
                plan.repo_url.format(shard=plan.shard), injector=self.injector
            )
            if plan.repo_url is not None
            else None
        )
        planner = EstatePlanner(
            config=AutoConfig(
                technique=plan.technique,
                n_jobs=1,
                racing=plan.racing,
                dayprofile=plan.dayprofile,
            ),
            cache=SelectionCache(),
        )
        self.runtime = StreamRuntime(
            planner=planner,
            config=plan.config,
            executor=self.executor,
            injector=self.injector,
            repository=self.repository,
        )
        self.ingest_cpu = 0.0
        self.tick_cpu = 0.0

    # ------------------------------------------------------------------
    def handle(self, op: str, payload):
        """Run one command; returns its reply payload (may raise)."""
        if op == "ingest":
            return self._ingest(payload)
        if op == "finish":
            return self._capture(self.runtime.finish)
        if op == "resync":
            report = self.runtime.scheduler.resync()
            return {
                "modelled": len(report.modelled) if report is not None else 0,
                "failed": len(report.failed) if report is not None else 0,
            }
        if op == "telemetry":
            return self._telemetry()
        if op == "plan_state":
            return self.runtime.plan_inputs()
        if op == "extract":
            return self._extract(payload)
        if op == "seed":
            return self._seed(payload)
        if op == "stop":
            if self.repository is not None:
                self.repository.close()
            return True
        raise DataError(f"unknown shard command {op!r}")

    # ------------------------------------------------------------------
    def _ingest(self, envelope) -> ShardTick:
        """Feed one batched SoA envelope straight to the bus, tick once.

        Equivalent to :meth:`StreamRuntime.ingest_batch` on the decoded
        chunk, split so intake and window/advisory work are timed apart:
        the push runs first, then an empty-chunk ``ingest_batch`` carries
        the clock advance and the tick. The envelope's four columns go
        directly into :meth:`IngestBus.push_columns` — no ``AgentSample``
        reconstruction on the hot path (``push_columns`` itself rebuilds
        samples only when a fault plan targets ``ingest.deliver``, where
        the per-sample delivery hook and its RNG draw order must hold).
        An empty envelope still ticks — every shard ticks every global
        chunk, keeping alert debounce streak counts identical to the
        single-process runtime.
        """
        instances, metrics, timestamps, values, clock_target = envelope
        t0 = time.process_time()
        if instances:
            self.runtime.bus.push_columns(instances, metrics, timestamps, values)
        t1 = time.process_time()
        tick = self._capture(lambda: self.runtime.ingest_batch([], clock_target))
        self.tick_cpu += time.process_time() - t1
        self.ingest_cpu += t1 - t0
        return tick

    def _capture(self, advance) -> ShardTick:
        """Run one tick-producing call; package its delta as a ShardTick."""
        before = len(self.runtime.events)
        before_proposals = len(self.runtime.proposals)
        tick = advance()
        return ShardTick(
            advisories=dict(tick.advisories),
            events=tuple(self.runtime.events[before:]),
            refits=tuple(tick.refits),
            proposals=tuple(self.runtime.proposals[before_proposals:]),
        )

    def _telemetry(self) -> dict:
        trace = self.runtime.telemetry()
        faults = dict(trace.faults)
        if self.repository is not None:
            for key, value in self.repository.fault_counters.items():
                faults[key] = faults.get(key, 0) + value
        return {
            "shard": self.plan.shard,
            "counters": dict(trace.counters),
            "faults": faults,
            "active_alerts": len(self.runtime.alerts.active_alerts()),
            "backend": self.repository.backend if self.repository is not None else None,
            "ingest_cpu_seconds": self.ingest_cpu,
            "tick_cpu_seconds": self.tick_cpu,
            "process_cpu_seconds": time.process_time(),
        }

    def _extract(self, keys) -> list[tuple[str, str, dict]]:
        """Hand over the named keys' full state and forget them here.

        The exported bundle (bus buffer + aggregator anchor + hourly
        history, see :meth:`StreamRuntime.export_key`) is everything the
        receiving shard needs to continue the key without losing the
        hour in flight.
        """
        out: list[tuple[str, str, dict]] = []
        for instance, metric in keys:
            state = self.runtime.export_key(instance, metric)
            if state is not None:
                out.append((instance, metric, state))
            self.runtime.evict_key(instance, metric)
        return out

    def _seed(self, migrated) -> int:
        """Adopt migrated key state (the receiving side of ``extract``)."""
        for instance, metric, state in migrated:
            self.runtime.adopt_key(instance, metric, state)
        return len(migrated)


def worker_main(plan: ShardPlan, commands, replies) -> None:
    """Process entry point: loop the handler over the command queue.

    Commands are ``(seq, op, payload)``; every one gets exactly one reply
    ``(seq, "ok", result)`` or ``(seq, "error", traceback_text)`` in
    arrival order. A failed command never kills the worker — the control
    plane decides whether the error is fatal — except ``stop``, which
    replies and exits the loop.
    """
    try:
        handler = ShardHandler(plan)
    except BaseException:
        # Startup failure: poison every future command with the cause.
        boot_error = traceback.format_exc()
        while True:
            seq, op, _ = commands.get()
            replies.put((seq, "error", f"shard {plan.shard} failed to start:\n{boot_error}"))
            if op == "stop":
                return
    while True:
        seq, op, payload = commands.get()
        try:
            result = handler.handle(op, payload)
        except BaseException:
            replies.put((seq, "error", traceback.format_exc()))
            if op == "stop":
                return
            continue
        replies.put((seq, "ok", result))
        if op == "stop":
            return
