"""The sharded control plane: fan-out, clock discipline, merged fan-in.

:class:`ShardedRuntime` mirrors the :class:`~repro.stream.runtime
.StreamRuntime` driving API (``run`` / ``finish`` / ``telemetry`` /
``summary_lines`` / ``events``) while the actual serving happens in N
shard workers. Determinism is the design contract — at N=1 the sharded
output is **byte-identical** to the single-process runtime, and the
alerts/advisories stream is identical at every N — and it falls out of
four rules:

1. the delivery model (jitter + duplicates) is applied **once**, at the
   router, with the same seeded RNG the single-process runtime would
   use, *before* partitioning — so every shard sees the exact arrival
   order one process would have seen for its keys;
2. chunk boundaries are global (``batch_polls`` over the merged
   stream), and every shard receives an envelope for every chunk —
   empty if it owns none of the samples — so every shard ticks every
   chunk and alert debounce streaks count ticks identically;
3. every envelope carries the **global** chunk clock target, so all N
   shard clocks agree with the single process clock at every tick;
4. fan-in sorts advisories and alert events by
   :class:`~repro.service.estate.WorkloadKey` — exactly the order the
   single-process loop produces, because it already iterates advisories
   sorted and shards partition the key space disjointly.

Ingest commands are pipelined ``_PIPELINE_DEPTH`` chunks deep per shard
(SPSC FIFO queues guarantee reply order), which keeps workers busy while
the router partitions the next chunks. ``processes=False`` runs every
shard inline in this process — same protocol, zero IPC — which is the
single-process mode of ``repro stream`` and ``repro chaos`` at N=1, the
parity suite's fast path and the apples-to-apples baseline for the
shard-scaling bench.
"""

from __future__ import annotations

import math
import queue
import traceback
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..agent.agent import AgentSample
from ..engine.telemetry import RunTrace
from ..exceptions import DataError
from ..faults.plan import FaultRule
from ..service.estate import WorkloadKey
from ..service.thresholds import BreachPrediction
from ..stream.alerts import AlertEvent
from ..stream.runtime import StreamConfig, mangle_delivery, stream_summary_lines
from ..stream.scheduler import RefitEvent
from .router import ShardRouter
from .worker import ShardHandler, ShardPlan, ShardTick, worker_main

__all__ = ["MergedTick", "ShardedRuntime"]

#: Counters that must not be summed across shards: every shard ticks
#: every global chunk, so the deployment-wide value is the max, not N×.
_MAX_MERGED_COUNTERS = ("stream_ticks",)

#: Ingest chunks in flight per shard before the control plane blocks on
#: fan-in.
_PIPELINE_DEPTH = 4


@dataclass
class MergedTick:
    """One global chunk's merged outcome across every shard."""

    advisories: dict[WorkloadKey, BreachPrediction] = field(default_factory=dict)
    events: list[AlertEvent] = field(default_factory=list)
    refits: list[RefitEvent] = field(default_factory=list)
    #: Merged PlanProposal events (empty unless planning is enabled).
    proposals: list = field(default_factory=list)


class _InlineShard:
    """Zero-IPC transport: the handler runs right here, replies queue up."""

    def __init__(self, plan: ShardPlan) -> None:
        self.handler = ShardHandler(plan)
        self._replies: deque = deque()

    def send(self, seq: int, op: str, payload) -> None:
        try:
            result = self.handler.handle(op, payload)
        except Exception:
            self._replies.append((seq, "error", traceback.format_exc()))
        else:
            self._replies.append((seq, "ok", result))

    def recv(self):
        return self._replies.popleft()

    def join(self) -> None:
        pass


class _ProcessShard:
    """One ``multiprocessing`` worker and its SPSC command/reply queues."""

    def __init__(self, plan: ShardPlan, ctx) -> None:
        self.commands = ctx.Queue()
        self.replies = ctx.Queue()
        self.process = ctx.Process(
            target=worker_main,
            args=(plan, self.commands, self.replies),
            daemon=True,
            name=f"repro-shard-{plan.shard}",
        )
        self.process.start()

    def send(self, seq: int, op: str, payload) -> None:
        self.commands.put((seq, op, payload))

    def recv(self):
        # Poll rather than block forever: a worker that died hard (kill,
        # OOM) would otherwise hang the control plane on a reply that is
        # never coming.
        while True:
            try:
                return self.replies.get(timeout=5.0)
            except queue.Empty:
                if not self.process.is_alive():
                    raise RuntimeError(
                        f"{self.process.name} died (exitcode "
                        f"{self.process.exitcode}) with a reply outstanding"
                    ) from None

    def join(self) -> None:
        self.process.join(timeout=30)


class ShardedRuntime:
    """N shard workers behind one StreamRuntime-shaped driving API.

    Parameters
    ----------
    n_shards:
        Initial shard count (≥ 1). :meth:`rebalance` changes it later.
    config:
        The same :class:`~repro.stream.runtime.StreamConfig` a
        single-process runtime would take; every shard runs under it.
    technique / racing / dayprofile:
        Per-shard planner configuration (each worker owns its own
        serial :class:`~repro.service.estate.EstatePlanner` and
        selection cache).
    repo_url:
        Repository URL template with an optional ``{shard}``
        placeholder; each worker opens its own partition so shards never
        contend on one WAL file. ``None`` disables persistence.
    fault_rules / fault_seed / task_retries / retry_timed_out:
        The chaos-plane slice each worker rebuilds locally (see
        :class:`~repro.shard.worker.ShardPlan`).
    processes:
        ``True`` spawns one OS process per shard; ``False`` runs every
        shard inline (same protocol, deterministic, no IPC).
    mangle:
        Apply the seeded delivery model in :meth:`run`. ``False`` feeds
        samples exactly as given (benchmarks that pre-order their
        streams skip the mangling cost).
    """

    def __init__(
        self,
        n_shards: int,
        config: StreamConfig | None = None,
        technique: str = "hes",
        racing: bool = False,
        dayprofile: bool = False,
        repo_url: str | None = None,
        fault_rules: tuple[FaultRule, ...] = (),
        fault_seed: int = 0,
        task_retries: int | None = None,
        retry_timed_out: bool = False,
        processes: bool = True,
        mangle: bool = True,
    ) -> None:
        if repo_url is not None:
            # fail fast on unknown schemes / missing optional engines
            # here in the driver, not from a worker mid-boot
            from ..agent.backends import ensure_backend_available

            ensure_backend_available(repo_url)
        self.config = config or StreamConfig()
        self.router = ShardRouter(n_shards)
        self.processes = processes
        self._plan_kwargs = dict(
            config=self.config,
            technique=technique,
            racing=racing,
            dayprofile=dayprofile,
            repo_url=repo_url,
            fault_rules=tuple(fault_rules),
            fault_seed=fault_seed,
            task_retries=task_retries,
            retry_timed_out=retry_timed_out,
        )
        self._ctx = None
        if processes:
            import multiprocessing

            self._ctx = multiprocessing.get_context()
        self._shards = [self._spawn(i, n_shards) for i in range(n_shards)]
        self._rng = np.random.default_rng(self.config.seed)
        self._mangle = bool(mangle)
        self._seq = 0
        self._inflight: deque[int] = deque()
        self._clock_target: float | None = None
        self.events: list[AlertEvent] = []
        self.proposals: list = []
        self.ticks = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Transport plumbing
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def _spawn(self, shard: int, n_shards: int):
        plan = ShardPlan(shard=shard, n_shards=n_shards, **self._plan_kwargs)
        if self.processes:
            return _ProcessShard(plan, self._ctx)
        return _InlineShard(plan)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _collect(self, seq: int) -> list:
        """One reply per shard for ``seq`` (FIFO queues keep them in order)."""
        results = []
        for i, shard in enumerate(self._shards):
            got_seq, status, payload = shard.recv()
            if got_seq != seq:  # pragma: no cover - protocol invariant
                raise RuntimeError(
                    f"shard {i} replied out of order: expected seq {seq}, got {got_seq}"
                )
            if status != "ok":
                raise RuntimeError(f"shard {i} command failed:\n{payload}")
            results.append(payload)
        return results

    def _command(self, op: str, payloads=None) -> list:
        """Synchronous broadcast: drain the pipeline, send, collect."""
        self._drain_all()
        seq = self._next_seq()
        for i, shard in enumerate(self._shards):
            shard.send(seq, op, payloads[i] if payloads is not None else None)
        return self._collect(seq)

    def _drain_one(self) -> list[ShardTick]:
        return self._collect(self._inflight.popleft())

    def _drain_all(self) -> None:
        while self._inflight:
            self._absorb(self._drain_one())

    # ------------------------------------------------------------------
    # Fan-in
    # ------------------------------------------------------------------
    def _absorb(self, shard_ticks: list[ShardTick]) -> MergedTick:
        """Merge one chunk's shard ticks in deterministic key order."""
        advisories: dict[WorkloadKey, BreachPrediction] = {}
        for st in shard_ticks:
            advisories.update(st.advisories)
        events = sorted(
            (e for st in shard_ticks for e in st.events), key=lambda e: e.key
        )
        refits = sorted(
            (r for st in shard_ticks for r in st.refits), key=lambda r: r.key
        )
        proposals = sorted(
            (p for st in shard_ticks for p in st.proposals), key=lambda p: p.key
        )
        self.events.extend(events)
        self.proposals.extend(proposals)
        self.ticks += 1
        return MergedTick(
            advisories={k: advisories[k] for k in sorted(advisories)},
            events=events,
            refits=refits,
            proposals=proposals,
        )

    # ------------------------------------------------------------------
    # Driving (mirrors StreamRuntime)
    # ------------------------------------------------------------------
    def delivery_order(self, samples: list[AgentSample]) -> list[AgentSample]:
        """The single-process delivery model, applied once at the router."""
        if not self._mangle:
            return list(samples)
        return mangle_delivery(
            samples, self._rng, self.config.jitter_seconds, self.config.duplicate_rate
        )

    @staticmethod
    def _envelope(part: list[AgentSample], clock_target: float):
        """Pack one shard's sub-chunk as a batched SoA envelope.

        The four columns cross the IPC boundary as-is and feed straight
        into :meth:`~repro.stream.ingest.IngestBus.push_columns` on the
        worker — the columnar layout survives end to end, with no
        per-sample object reconstruction on either side.
        """
        n = len(part)
        return (
            [s.instance for s in part],
            [s.metric for s in part],
            np.fromiter((s.timestamp for s in part), dtype=float, count=n),
            np.fromiter((s.value for s in part), dtype=float, count=n),
            clock_target,
        )

    def run(self, samples: list[AgentSample]) -> list[MergedTick]:
        """Replay a poll stream through every shard, chunk by chunk."""
        if not samples:
            raise DataError("no samples to stream")
        stream = self.delivery_order(samples)
        batch = max(1, int(self.config.batch_polls))
        ticks: list[MergedTick] = []
        for lo in range(0, len(stream), batch):
            chunk = stream[lo : lo + batch]
            target = max(s.timestamp for s in chunk)
            if self._clock_target is None or target > self._clock_target:
                self._clock_target = target
            parts = self.router.partition(chunk)
            seq = self._next_seq()
            for shard, part in zip(self._shards, parts):
                shard.send(seq, "ingest", self._envelope(part, target))
            self._inflight.append(seq)
            if len(self._inflight) >= _PIPELINE_DEPTH:
                ticks.append(self._absorb(self._drain_one()))
        while self._inflight:
            ticks.append(self._absorb(self._drain_one()))
        return ticks

    def finish(self) -> MergedTick:
        """End of stream: flush trailing windows on every shard, merge."""
        return self._absorb(self._command("finish"))

    def resync(self) -> dict[str, int]:
        """Re-register and re-select every shard's keys (restart path)."""
        results = self._command("resync")
        return {
            "modelled": sum(r["modelled"] for r in results),
            "failed": sum(r["failed"] for r in results),
        }

    # ------------------------------------------------------------------
    # Estate planning
    # ------------------------------------------------------------------
    def propose_plan(
        self,
        only_fired: bool = False,
        catalog=None,
        current_tier=None,
        max_replicas: int = 3,
        policy=None,
    ):
        """One estate-wide provisioning plan across every shard.

        Broadcasts ``plan_state`` — each shard contributes the remaining
        forecast band and current capacity for every thresholded key it
        owns, plus its trigger-tracker export — merges the per-shard
        trigger state into one estate view
        (:meth:`~repro.planner.triggers.TriggerTracker.merged`), and
        plans the merged demands exactly
        (:func:`~repro.planner.estate.plan_estate`). Because shards
        partition keys disjointly and each key's model state is
        byte-identical to the single-process run, the returned
        :class:`~repro.planner.estate.EstatePlan` is identical for every
        shard count.

        ``only_fired`` restricts the plan to instances with at least one
        key whose triggers currently fire (the continuous re-planning
        shape); the default plans the whole estate (the one-shot shape).
        ``policy`` overrides the trigger thresholds the merged evidence
        is judged with — it defaults to the same config-derived policy
        the shard escalators planned under, but an estate-level sweep
        may legitimately ask with different thresholds (e.g. a zero
        cooldown to see everything currently in breach). Returns
        ``None`` when there is nothing to plan.
        """
        from ..planner.estate import plan_estate
        from ..planner.blueprint import DEFAULT_CATALOG
        from ..planner.scoring import ForecastBand, InstanceDemand
        from ..planner.triggers import TriggerPolicy, TriggerTracker

        catalog = tuple(catalog) if catalog is not None else DEFAULT_CATALOG
        tier = current_tier if current_tier is not None else catalog[0]
        if policy is None:
            policy = TriggerPolicy(
                sustained_breach_ticks=self.config.plan_sustained_ticks,
                cooldown_seconds=self.config.plan_cooldown_seconds,
            )
        states = self._command("plan_state")
        tracker = TriggerTracker.merged(
            (s["triggers"] for s in states), policy=policy
        )
        now = self._clock_target if self._clock_target is not None else 0.0
        firing_instances = {key.workload for key in tracker.fired(now)}

        merged: dict[str, dict] = {}
        for state in states:
            for record in state["keys"]:
                entry = merged.setdefault(
                    record["instance"], {"bands": {}, "capacities": {}}
                )
                entry["bands"][record["metric"]] = ForecastBand.from_payload(
                    record["band"]
                )
                entry["capacities"][record["metric"]] = float(record["threshold"])
        demands = [
            InstanceDemand(
                instance=instance,
                tier=tier,
                bands=merged[instance]["bands"],
                capacities=merged[instance]["capacities"],
            )
            for instance in sorted(merged)
            if not only_fired or instance in firing_instances
        ]
        if not demands:
            return None
        return plan_estate(
            demands,
            catalog=catalog,
            max_replicas=max_replicas,
        )

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def shard_stats(self) -> list[dict]:
        """Raw per-shard telemetry payloads (counters, faults, CPU seconds)."""
        return self._command("telemetry")

    def telemetry(self) -> RunTrace:
        """One merged trace across every shard.

        Counters sum — each shard owns a disjoint key slice — except the
        per-chunk tick count, where every shard ticks every global chunk
        and the deployment-wide value is the max. Fault counters sum.
        """
        trace = RunTrace()
        maxed: dict[str, int] = {}
        for stats in self.shard_stats():
            for name, value in stats["counters"].items():
                if name in _MAX_MERGED_COUNTERS:
                    maxed[name] = max(maxed.get(name, 0), value)
                else:
                    trace.count(name, value)
            trace.absorb_faults(stats["faults"])
        for name, value in maxed.items():
            trace.count(name, value)
        return trace

    def summary_lines(self) -> list[str]:
        """The CLI live block: a shard header plus the shared four lines."""
        stats = self.shard_stats()
        merged: dict[str, int] = {}
        faults: dict[str, int] = {}
        active = 0
        for s in stats:
            active += s["active_alerts"]
            for name, value in s["counters"].items():
                if name in _MAX_MERGED_COUNTERS:
                    merged[name] = max(merged.get(name, 0), value)
                else:
                    merged[name] = merged.get(name, 0) + value
            for name, value in s["faults"].items():
                faults[name] = faults.get(name, 0) + value
        backend = next((s["backend"] for s in stats if s["backend"]), None)
        mode = "processes" if self.processes else "inline"
        header = f"shards: {len(stats)} ({mode}"
        header += f", backend={backend})" if backend else ")"
        return [header] + stream_summary_lines(
            merged, merged, merged, merged, active, faults
        )

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------
    def rebalance(self, n_shards: int) -> dict:
        """Resize to ``n_shards``, migrating only the keys the ring moves.

        A watermark-consistent barrier: the in-flight pipeline drains
        first, so every shard has processed the same global chunks before
        any state moves. Moved keys' hourly histories are extracted from
        their old shards (and evicted there across every layer), new
        workers are spawned / surplus workers stopped, and the histories
        are seeded on their new owners — which re-register them on their
        next window (models are re-selected on the new shard, hitting
        the local selection cache when the series is unchanged; alert
        debounce streaks restart, as documented on
        :meth:`~repro.stream.alerts.AlertManager.evict`).
        """
        if n_shards < 1:
            raise DataError(f"n_shards must be >= 1, got {n_shards}")
        self._drain_all()
        old_n = len(self._shards)
        if n_shards == old_n:
            return {"moved": 0, "n_shards": old_n}
        moved = self.router.rebuild(n_shards)

        # Pull state off the losing shards before the topology changes.
        by_source: dict[int, list[tuple[str, str]]] = {}
        for key, (src, _dst) in moved.items():
            by_source.setdefault(src, []).append(key)
        extracted: list[tuple[str, str, dict]] = []
        if by_source:
            payloads = [sorted(by_source.get(i, [])) for i in range(old_n)]
            seq = self._next_seq()
            for shard, keys in zip(self._shards, payloads):
                shard.send(seq, "extract", keys)
            for histories in self._collect(seq):
                extracted.extend(histories)

        if n_shards > old_n:
            grown = [self._spawn(i, n_shards) for i in range(old_n, n_shards)]
            self._shards.extend(grown)
            if self._clock_target is not None:
                # Bring the newcomers' clocks up to the stream head.
                sync = self._next_seq()
                for shard in grown:
                    shard.send(sync, "ingest", self._envelope([], self._clock_target))
                for shard in grown:
                    shard.recv()
        elif n_shards < old_n:
            retired, self._shards = self._shards[n_shards:], self._shards[:n_shards]
            stop = self._next_seq()
            for shard in retired:
                shard.send(stop, "stop", None)
            for shard in retired:
                shard.recv()
                shard.join()

        # Seed migrated histories on their new owners.
        by_dest: dict[int, list] = {}
        for record in extracted:
            instance, metric = record[0], record[1]
            by_dest.setdefault(moved[(instance, metric)][1], []).append(record)
        if by_dest:
            payloads = [by_dest.get(i, []) for i in range(n_shards)]
            seq = self._next_seq()
            for shard, histories in zip(self._shards, payloads):
                shard.send(seq, "seed", histories)
            self._collect(seq)
        return {
            "moved": len(moved),
            "migrated_histories": len(extracted),
            "n_shards": n_shards,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._drain_all()
        except Exception:
            pass  # shutting down: a sick shard must not block the others
        seq = self._next_seq()
        for shard in self._shards:
            shard.send(seq, "stop", None)
        for shard in self._shards:
            try:
                shard.recv()
            except Exception:
                pass
            shard.join()

    def __enter__(self) -> "ShardedRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def shard_cpu_seconds(self) -> dict[str, float]:
        """Per-phase CPU seconds of the busiest shard (bench headline).

        ``time.process_time`` measures CPU, not wall clock, so the
        numbers are unaffected by N workers timesharing few cores — the
        honest basis for partitioned-capacity scaling claims.
        """
        stats = self.shard_stats()
        return {
            "max_ingest_cpu": max(s["ingest_cpu_seconds"] for s in stats),
            "max_tick_cpu": max(s["tick_cpu_seconds"] for s in stats),
            "total_ingest_cpu": math.fsum(s["ingest_cpu_seconds"] for s in stats),
            "total_tick_cpu": math.fsum(s["tick_cpu_seconds"] for s in stats),
        }
