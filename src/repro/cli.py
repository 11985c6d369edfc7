"""Command-line interface: the library's operations as shell commands.

The paper's system is an operations tool, so this reproduction ships one
too::

    python -m repro simulate --experiment oltp --out metrics.db
    python -m repro inspect  --db metrics.db --instance cdbm011 --metric cpu
    python -m repro forecast --db metrics.db --instance cdbm011 --metric cpu \
                             --threshold 80
    python -m repro advise   --db metrics.db --threshold cpu=80 \
                             --threshold logical_iops=4e6

``simulate`` runs one of the paper's experiments (or a scenario) through
the monitoring agent into a SQLite repository; ``inspect`` prints the
Figure 4 characterisation (stationarity, seasonality, shocks, faults);
``forecast`` runs the self-selection pipeline and renders a Figure 8-style
panel; ``advise`` produces the estate report across every stored metric;
``plan`` turns those forecasts into a one-shot estate provisioning plan
(catalog blueprints scored against the forecast bands, the best one
taken per instance or co-location group); ``chaos`` runs a named fault-injection
scenario (``repro chaos --list``) against the synthetic estate and
prints a deterministic survival report.

Metric series can also be read from / written to plain CSV
(``timestamp,value`` rows) with ``--csv`` for integration with anything.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from .agent import FaultModel, MetricsRepository, MonitoringAgent
from .core import (
    Frequency,
    TimeSeries,
    adf_test,
    detect_seasonalities,
    interpolate_missing,
    seasonal_strength,
    trend_strength,
)
from .engine import default_executor
from .exceptions import CapacityPlanningError
from .reporting import Table, render_panel
from .selection import AutoConfig, auto_forecast
from .service import EstatePlanner
from .shocks import build_shock_calendar, discard_faults
from .workloads import (
    OlapExperiment,
    OltpExperiment,
    batch_etl,
    generate_olap_run,
    generate_oltp_run,
    unstable_system,
    web_transactions,
    weekly_business_app,
)

__all__ = ["main", "build_parser"]

_SCENARIOS = {
    "web": web_transactions,
    "etl": batch_etl,
    "erp": weekly_business_app,
    "faulty": unstable_system,
}

_FREQUENCIES = {f.value: f for f in Frequency}


# ---------------------------------------------------------------------------
# IO helpers
# ---------------------------------------------------------------------------
def _load_csv_series(path: str, frequency: Frequency) -> TimeSeries:
    samples: list[tuple[float, float]] = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().lower() in ("timestamp", "time", "t"):
                continue
            value = float(row[1]) if row[1].strip() else float("nan")
            samples.append((float(row[0]), value))
    return TimeSeries.from_samples(samples, frequency=frequency)


def _write_csv_series(path: str, series: TimeSeries) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "value"])
        for ts, value in zip(series.timestamps, series.values):
            writer.writerow([f"{ts:.0f}", "" if np.isnan(value) else f"{value:.6g}"])


def _load_series(args, parser: argparse.ArgumentParser) -> TimeSeries:
    frequency = _FREQUENCIES[args.frequency]
    if getattr(args, "csv", None):
        return _load_csv_series(args.csv, frequency)
    if getattr(args, "db", None):
        if not (args.instance and args.metric):
            parser.error("--db requires --instance and --metric")
        with MetricsRepository(args.db) as repo:
            return repo.load_series(args.instance, args.metric, frequency=frequency)
    parser.error("supply a data source: --csv FILE or --db FILE")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------
def _cmd_simulate(args, parser) -> int:
    if args.experiment in ("olap", "oltp"):
        run = (
            generate_olap_run(hourly=False)
            if args.experiment == "olap"
            else generate_oltp_run(hourly=False)
        )
        fault_model = FaultModel() if args.faulty_agent else None
        agent = MonitoringAgent(fault_model=fault_model, seed=args.seed)
        samples = agent.poll_run(run)
        if not args.out:
            parser.error("--out DB is required for cluster experiments")
        with MetricsRepository(args.out) as repo:
            n = repo.ingest(samples)
        print(f"simulated experiment {args.experiment}: {n} samples → {args.out}")
        return 0
    series = _SCENARIOS[args.experiment](days=args.days, seed=args.seed)
    if args.out:
        _write_csv_series(args.out, series)
        print(f"simulated scenario {args.experiment}: {len(series)} points → {args.out}")
    else:
        print(f"simulated scenario {args.experiment}: {len(series)} points (no --out given)")
    return 0


def _cmd_inspect(args, parser) -> int:
    series = interpolate_missing(_load_series(args, parser))
    period = series.frequency.default_period

    table = Table(["Property", "Value"], title=f"Characterisation: {series.name or 'series'}")
    table.add_row(["observations", str(len(series))])
    table.add_row(["frequency", series.frequency.label()])
    stats = series.summary()
    table.add_row(["mean / std", f"{stats['mean']:,.2f} / {stats['std']:,.2f}"])
    table.add_row(["min / max", f"{stats['min']:,.2f} / {stats['max']:,.2f}"])
    adf = adf_test(series)
    table.add_row(["stationary (ADF)", f"{'yes' if adf.stationary else 'no'} (p={adf.p_value:.3f})"])
    table.add_row(["trend strength", trend_strength(series, period)])
    table.add_row(["seasonal strength", seasonal_strength(series, period)])
    seasons = detect_seasonalities(
        series, candidates=[p for p in (period, series.frequency.secondary_period) if p]
    )
    table.add_row(["seasonal periods", ",".join(str(p) for p in seasons.periods) or "-"])
    calendar = build_shock_calendar(series, period=period)
    table.add_row(["recurring shocks", str(calendar.n_columns)])
    faults = discard_faults(series, period=period)
    table.add_row(["fault verdict", faults.verdict.value])
    table.print()
    for line in calendar.describe():
        print(f"  shock: {line}")
    return 0


def _data_plane_lines(trace) -> list[str]:
    """Render the broadcast/racing/cache counters as human-sized lines."""
    if trace is None:
        return []
    c = trace.counters
    lines = []
    if "bytes_tasks" in c or "bytes_broadcast" in c:
        lines.append(
            f"data plane: broadcast {c.get('bytes_broadcast', 0) / 1024:.1f} KiB "
            f"({c.get('payload_broadcasts', 0)} payloads, "
            f"{c.get('payload_broadcast_hits', 0)} reused), "
            f"task args {c.get('bytes_tasks', 0) / 1024:.1f} KiB"
        )
    if "candidates_pruned_by_racing" in c:
        lines.append(
            f"racing: {c.get('candidates_pruned_by_racing', 0)} pruned, "
            f"{c.get('racing_full_fits', 0)} full-budget fits, "
            f"{c.get('warm_start_hits', 0)} warm starts"
        )
    if "selection_cache_hits" in c or "selection_cache_misses" in c:
        lines.append(
            f"selection cache: {c.get('selection_cache_hits', 0)} hits, "
            f"{c.get('selection_cache_misses', 0)} misses"
        )
    return lines


def _cmd_forecast(args, parser) -> int:
    series = _load_series(args, parser)
    config = AutoConfig(
        technique=args.technique,
        n_jobs=args.jobs,
        racing=args.racing,
        dayprofile=args.dayprofile,
    )
    executor = default_executor(args.jobs)
    forecast, outcome = auto_forecast(
        series, horizon=args.horizon, config=config, executor=executor
    )
    forecast = forecast.clipped(0.0)

    history = interpolate_missing(series)
    shocks = outcome.shock_calendar.describe() if outcome.shock_calendar else []
    print(
        render_panel(
            title=series.name or f"{args.instance or 'series'}/{args.metric or ''}",
            history=history.tail(min(len(history), 7 * 24)),
            forecast=forecast,
            shocks=shocks,
            threshold=args.threshold,
        )
    )
    print(f"selected: {outcome.describe()}")
    if outcome.trace is not None:
        for line in outcome.trace.summary_lines():
            print(f"  {line}")
        for line in _data_plane_lines(outcome.trace):
            print(f"  {line}")
    if args.out:
        from .reporting import prediction_chart

        fig = prediction_chart(
            "forecast", history.tail(min(len(history), 7 * 24)), forecast.mean, forecast
        )
        fig.save(args.out)
        print(f"forecast data → {args.out}")
    return 0


def _parse_thresholds(pairs: list[str], parser) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs or []:
        if "=" not in pair:
            parser.error(f"--threshold expects metric=value, got {pair!r}")
        metric, __, value = pair.partition("=")
        out[metric.strip()] = float(value)
    return out


def _cmd_advise(args, parser) -> int:
    thresholds = _parse_thresholds(args.threshold, parser)
    # The estate fans out across (workload, metric) pairs on one shared
    # pool; grid evaluation inside each worker stays serial.
    planner = EstatePlanner(
        config=AutoConfig(n_jobs=1, racing=args.racing, dayprofile=args.dayprofile),
        executor=default_executor(args.jobs),
    )
    with MetricsRepository(args.db) as repo:
        for instance in repo.instances():
            for metric in repo.metrics(instance):
                series = repo.load_series(instance, metric)
                planner.register(
                    customer=args.customer,
                    workload=instance,
                    metric=metric,
                    series=series,
                    threshold=thresholds.get(metric),
                )
    report = planner.report()
    for line in report.summary_lines():
        print(line)
    if report.trace is not None:
        for line in report.trace.summary_lines():
            print(f"  {line}")
        for line in _data_plane_lines(report.trace):
            print(f"  {line}")
    return 0 if not report.failed else 1


def _parse_clusters(pairs: list[str], parser) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs or []:
        if "=" not in pair:
            parser.error(f"--cluster expects instance=name, got {pair!r}")
        instance, __, cluster = pair.partition("=")
        out[instance.strip()] = cluster.strip()
    return out


def _cmd_plan(args, parser) -> int:
    from .planner import (
        DEFAULT_CATALOG,
        demands_from_entries,
        plan_estate,
        reconcile,
        tier_named,
    )
    from .shard.ring import HashRing

    thresholds = _parse_thresholds(args.threshold, parser)
    if not thresholds:
        parser.error("at least one --threshold METRIC=VALUE is required")
    tier = tier_named(args.tier, DEFAULT_CATALOG) if args.tier else DEFAULT_CATALOG[0]

    # Forecasting fans out per shard exactly as the serving plane would
    # partition it; per-key selection is deterministic and
    # partition-independent, and demands are merged sorted, so the plan
    # bytes are identical for every --shards value.
    ring = HashRing(args.shards)
    executor = default_executor(args.jobs)
    planners = [
        EstatePlanner(
            config=AutoConfig(
                technique=args.technique,
                n_jobs=1,
                racing=args.racing,
                dayprofile=args.dayprofile,
            ),
            executor=executor,
        )
        for _ in range(args.shards)
    ]
    registered = 0
    with MetricsRepository(args.db) as repo:
        for instance in repo.instances():
            for metric in repo.metrics(instance):
                if metric not in thresholds:
                    continue
                series = repo.load_series(instance, metric)
                planners[ring.shard_for(instance, metric)].register(
                    customer=args.customer,
                    workload=instance,
                    metric=metric,
                    series=series,
                    threshold=thresholds[metric],
                )
                registered += 1
    if not registered:
        parser.error(f"no stored series match thresholds {sorted(thresholds)}")
    entries = []
    for planner in planners:
        if planner.size:
            entries.extend(planner.report().modelled)
    demands = demands_from_entries(entries, tier)
    if not demands:
        print("no modelled workloads to plan (selection failed everywhere)")
        return 1
    # Bottom-up reconciliation: cluster/estate rollup means are exact
    # sums of the per-instance forecasts the planner consumes, but their
    # upper bands combine member half-widths by RSS, while consolidation
    # scoring sums the members' upper bands, so a cluster's printed upper
    # peak can sit below the band its consolidation is graded against.
    reconciled = reconcile(demands, clusters=_parse_clusters(args.cluster, parser) or None)
    plan = plan_estate(reconciled.demands)
    for line in reconciled.describe_lines():
        print(line)
    for line in plan.describe_lines():
        print(line)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(plan.to_json() + "\n")
        print(f"estate plan → {args.out}")
    return 0


def _cmd_stream(args, parser) -> int:
    from .shard import ShardedRuntime
    from .stream import StreamConfig

    thresholds = _parse_thresholds(args.threshold, parser)
    metrics = [m.strip() for m in args.metric] if args.metric else ["cpu"]
    if args.experiment == "olap":
        run = generate_olap_run(OlapExperiment(days=args.days, seed=args.seed), hourly=False)
    else:
        run = generate_oltp_run(OltpExperiment(days=args.days, seed=args.seed), hourly=False)
    fault_model = FaultModel() if args.faulty_agent else None
    agent = MonitoringAgent(fault_model=fault_model, seed=args.seed)
    samples = [s for s in agent.poll_run(run) if s.metric in metrics]
    if not samples:
        parser.error(f"no samples for metrics {metrics}")

    stream_config = StreamConfig(
        thresholds=thresholds,
        min_observations=args.min_observations,
        seed=args.seed,
        dayprofile=args.dayprofile,
        planning=args.plan,
    )
    print(
        f"streaming {len(samples)} polls from experiment {args.experiment} "
        f"({len(run.instances)} instances, metrics: {', '.join(metrics)})"
    )
    repo_url = f"{args.repo_backend}://" if args.repo_backend else None
    with ShardedRuntime(
        args.shards,
        config=stream_config,
        technique=args.technique,
        racing=args.racing,
        dayprofile=args.dayprofile,
        repo_url=repo_url,
        processes=args.shards > 1,
    ) as sharded:
        ticks = sharded.run(samples)
        final = sharded.finish()
        for tick in (*ticks, final):
            for refit in tick.refits:
                print(f"  model refit: {refit.key} ({refit.reason}) at t={refit.at:.0f}s")
            for event in (*tick.events, *tick.proposals):
                print(f"  {event.describe()}")
        for line in sharded.summary_lines():
            print(line)
        for line in _data_plane_lines(sharded.telemetry()):
            print(f"  {line}")
    advisories = final.advisories or (ticks[-1].advisories if ticks else {})
    for key in advisories:
        print(f"  {key}: {advisories[key].describe()}")
    return 0


def _cmd_chaos(args, parser) -> int:
    from .faults.scenarios import SCENARIOS, run_scenario

    if args.list:
        for name in sorted(SCENARIOS):
            print(f"{name}: {SCENARIOS[name].description}")
        return 0
    if not args.scenario:
        parser.error("--scenario NAME is required (or --list)")
    if args.scenario not in SCENARIOS:
        parser.error(
            f"unknown scenario {args.scenario!r}; available: "
            + ", ".join(sorted(SCENARIOS))
        )
    if args.shards > 1:
        print(f"sharded: {args.shards} worker processes, backend={args.repo_backend}")
    report = run_scenario(
        args.scenario,
        seed=args.seed,
        days=args.days,
        shards=args.shards,
        repo_backend=args.repo_backend,
        shard_processes=args.shards > 1,
    )
    print(report.render())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json() + "\n")
        print(f"survival report → {args.out}")
    return 0 if report.survived else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
def _shard_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Database workload capacity planning (SIGMOD 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("--csv", help="CSV file of timestamp,value rows")
        p.add_argument("--db", help="SQLite metrics repository")
        p.add_argument("--instance", help="instance name within --db")
        p.add_argument("--metric", help="metric name within --db")
        p.add_argument(
            "--frequency",
            choices=sorted(_FREQUENCIES),
            default=Frequency.HOURLY.value,
            help="series granularity (default hourly)",
        )

    p_sim = sub.add_parser("simulate", help="generate a workload (experiment or scenario)")
    p_sim.add_argument(
        "--experiment",
        choices=["olap", "oltp", *sorted(_SCENARIOS)],
        required=True,
    )
    p_sim.add_argument("--out", help="output: .db for experiments, .csv for scenarios")
    p_sim.add_argument("--days", type=float, default=45.0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--faulty-agent", action="store_true", help="inject agent polling faults"
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_ins = sub.add_parser("inspect", help="characterise a metric series (Figure 4 analysis)")
    add_source(p_ins)
    p_ins.set_defaults(func=_cmd_inspect)

    p_fc = sub.add_parser("forecast", help="self-select a model and forecast")
    add_source(p_fc)
    p_fc.add_argument("--horizon", type=int, default=None, help="steps ahead (default: Table 1)")
    p_fc.add_argument("--technique", choices=["auto", "sarimax", "hes"], default="auto")
    p_fc.add_argument("--threshold", type=float, default=None, help="capacity threshold to check")
    p_fc.add_argument("--jobs", type=int, default=0, help="grid workers (0 = all cores)")
    p_fc.add_argument(
        "--racing",
        action="store_true",
        help="race grid candidates through successive-halving rungs",
    )
    p_fc.add_argument(
        "--dayprofile",
        action="store_true",
        help="race day-profile clustering candidates in the grid",
    )
    p_fc.add_argument("--out", help="write forecast chart data to this CSV")
    p_fc.set_defaults(func=_cmd_forecast)

    p_adv = sub.add_parser("advise", help="estate report across a metrics repository")
    p_adv.add_argument("--db", required=True)
    p_adv.add_argument("--customer", default="estate")
    p_adv.add_argument(
        "--threshold",
        action="append",
        metavar="METRIC=VALUE",
        help="capacity threshold per metric (repeatable)",
    )
    p_adv.add_argument("--jobs", type=int, default=0)
    p_adv.add_argument(
        "--racing",
        action="store_true",
        help="race grid candidates through successive-halving rungs",
    )
    p_adv.add_argument(
        "--dayprofile",
        action="store_true",
        help="race day-profile clustering candidates in the grid",
    )
    p_adv.set_defaults(func=_cmd_advise)

    p_str = sub.add_parser(
        "stream",
        help="live loop: agent polls → ingest bus → hourly windows → models → alerts",
    )
    p_str.add_argument("--experiment", choices=["olap", "oltp"], default="oltp")
    p_str.add_argument("--days", type=float, default=16.0, help="simulated days to stream")
    p_str.add_argument(
        "--metric",
        action="append",
        help="metric(s) to stream (repeatable; default cpu)",
    )
    p_str.add_argument(
        "--threshold",
        action="append",
        metavar="METRIC=VALUE",
        help="capacity threshold per metric (repeatable)",
    )
    p_str.add_argument(
        "--min-observations",
        type=int,
        default=336,
        help="hourly windows before the first selection (default: 14 days)",
    )
    p_str.add_argument("--technique", choices=["auto", "sarimax", "hes"], default="hes")
    p_str.add_argument("--seed", type=int, default=0)
    p_str.add_argument("--racing", action="store_true")
    p_str.add_argument(
        "--dayprofile",
        action="store_true",
        help="race day-profile candidates in selection and enable the "
        "day-profile degradation rung",
    )
    p_str.add_argument(
        "--faulty-agent", action="store_true", help="inject agent polling faults"
    )
    p_str.add_argument(
        "--shards",
        type=_shard_count,
        default=1,
        help="partition keys across N shards (1 = inline in this process, "
        "N > 1 = one worker process each)",
    )
    p_str.add_argument(
        "--repo-backend",
        choices=["sqlite", "duckdb"],
        default=None,
        help="persist closed windows and models to an in-memory repository "
        "partition per shard using this storage engine",
    )
    p_str.add_argument(
        "--plan",
        action="store_true",
        help="escalate sustained breaches into provisioning plan proposals",
    )
    p_str.set_defaults(func=_cmd_stream)

    p_plan = sub.add_parser(
        "plan",
        help="one-shot estate provisioning plan from a metrics repository",
    )
    p_plan.add_argument("--db", required=True)
    p_plan.add_argument("--customer", default="estate")
    p_plan.add_argument(
        "--threshold",
        action="append",
        metavar="METRIC=VALUE",
        help="current capacity per metric (repeatable; required)",
    )
    p_plan.add_argument("--jobs", type=int, default=0, help="selection workers (0 = all cores)")
    p_plan.add_argument("--technique", choices=["auto", "sarimax", "hes"], default="hes")
    p_plan.add_argument("--racing", action="store_true")
    p_plan.add_argument(
        "--dayprofile",
        action="store_true",
        help="race day-profile clustering candidates in the grid",
    )
    p_plan.add_argument(
        "--tier",
        default=None,
        help="catalog tier every instance currently runs on (default: smallest)",
    )
    p_plan.add_argument(
        "--cluster",
        action="append",
        metavar="INSTANCE=NAME",
        help="assign an instance to a co-location cluster (repeatable); "
        "clustered instances reconcile bottom-up and may consolidate",
    )
    p_plan.add_argument(
        "--shards",
        type=_shard_count,
        default=1,
        help="partition forecasting across N planners (plan bytes are identical at any N)",
    )
    p_plan.add_argument("--out", help="write the plan as JSON here")
    p_plan.set_defaults(func=_cmd_plan)

    p_chaos = sub.add_parser(
        "chaos",
        help="run a named fault-injection scenario and print its survival report",
    )
    p_chaos.add_argument("--scenario", help="scenario name (see --list)")
    p_chaos.add_argument("--list", action="store_true", help="list available scenarios")
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument(
        "--days", type=float, default=None, help="simulated days (default: scenario)"
    )
    p_chaos.add_argument("--out", help="write the survival report as JSON here")
    p_chaos.add_argument(
        "--shards",
        type=_shard_count,
        default=1,
        help="run the stream on N shards (1 = inline in this process, "
        "N > 1 = one worker process each)",
    )
    p_chaos.add_argument(
        "--repo-backend",
        choices=["sqlite", "duckdb"],
        default="sqlite",
        help="central repository storage engine",
    )
    p_chaos.set_defaults(func=_cmd_chaos)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except CapacityPlanningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
