"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run      one experiment (server x machine x network x clients)
sweep    a client-count sweep for one server configuration
cluster  a replica tier behind a load balancer (steady/flash/slowloris/restart)
trace    one observed cluster run: causal traces, attribution, SLO alerts
figure   regenerate one paper figure (1-10) and print its tables
figures  regenerate every paper figure (optionally in parallel / to JSON)
observe  run one instrumented experiment and print the span report
bench    measure the pipeline itself: kernel events/sec + figure wall-clock
cache    inspect or garbage-collect the content-addressed run store
profiles list the available measurement profiles

Examples
--------
::

    python -m repro run --server nio --threads 1 --clients 2400
    python -m repro run --server httpd --threads 4096 --cpus 4
    python -m repro run --clients 1M --fluid --duration 10 --warmup 6
    python -m repro sweep --clients 100k,250k,500k,1M --fluid
    python -m repro sweep --server nio --threads 2 --cpus 4 --jobs 4
    python -m repro sweep --server nio --threads 1 --reps 3:10 --ci 0.05
    python -m repro figure 3 --profile quick
    python -m repro figures --profile quick --jobs 0 --json figures.json
    python -m repro figures --profile standard --resume   # store-backed
    python -m repro cluster --replicas 3 --policy least_connections \\
        --clients 150,300 --cpu-speed 0.12
    python -m repro cluster --mix "nio:1,nio:1,httpd:512@0.5" \\
        --scenario flash --surge-clients 600
    python -m repro cluster --scenario restart --clients 150 --stats
    python -m repro cluster --cache-mb 64 --cache-sweep 1,4,16,64
    python -m repro trace --scenario restart --clients 32 --duration 6 \\
        --warmup 2 --policy least_connections --slo --top 3
    python -m repro cache ls
    python -m repro cache gc --older-than 7d
    python -m repro bench --profile quick --jobs 0
    python -m repro observe --server httpd --threads 896 --network 100m \\
        --clients 6000 --spans spans.jsonl --chrome trace.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from .core import (
    PROFILES,
    FigureRunner,
    PointSpec,
    Scenario,
    ServerSpec,
    SweepResult,
    WorkloadSpec,
    run_points,
)
from .net import NetworkSpec
from .osmodel import MachineSpec

_NETWORKS = {
    "100m": NetworkSpec.fast_ethernet,
    "200m": NetworkSpec.dual_fast_ethernet,
    "1g": NetworkSpec.gigabit,
}

#: Run-store directory of ``--resume`` and ``repro cache``, relative to
#: the working directory.
STORE_DIR = ".repro-store"


def parse_clients(text: str) -> int:
    """Client count with an optional k/M suffix: 600, 50k, 250k, 1M."""
    units = {"k": 1_000, "m": 1_000_000}
    raw = text.strip()
    scale = units.get(raw[-1:].lower(), 1)
    body = raw[:-1] if scale != 1 else raw
    try:
        count = int(round(float(body) * scale))
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(
            f"bad client count {raw!r}; expected e.g. 600, 50k or 1M"
        ) from None
    if count < 1:
        raise argparse.ArgumentTypeError("client count must be >= 1")
    return count


def parse_client_list(text: str) -> List[int]:
    """Comma-separated client counts, each read by :func:`parse_clients`."""
    return [parse_clients(c) for c in text.split(",")]


def parse_reps(text: str) -> Tuple[int, int]:
    """``MIN[:MAX]`` -> (min, max) replicate counts for ``sweep --reps``."""
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi or lo)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad --reps {text!r}; expected MIN[:MAX], e.g. 3:10"
        ) from None


def _fluid_config(args: argparse.Namespace):
    """The FluidConfig the flags ask for, or ``None`` (discrete clients)."""
    if not args.fluid and args.fluid_budget is None:
        return None
    from .workload import FluidConfig

    if args.fluid_budget is None:
        return FluidConfig()
    # --fluid-budget 0 = no cap: the population is always pinned discrete.
    return FluidConfig(budget=args.fluid_budget or None)


def _server_spec(args: argparse.Namespace) -> ServerSpec:
    return ServerSpec(
        kind=args.server,
        threads=args.threads,
        idle_timeout=args.idle_timeout,
        jvm_factor=args.jvm_factor,
        dynamic_pool=args.dynamic_pool,
        selector_strategy=args.selector_strategy,
    )


def _scenario(args: argparse.Namespace) -> Scenario:
    machine = MachineSpec(cpus=args.cpus, cpu_speed=args.cpu_speed)
    network = _NETWORKS[args.network]()
    return Scenario(f"{args.cpus}cpu-{args.network}", machine, network)


def _point(
    args: argparse.Namespace, clients: int,
    server: Optional[ServerSpec] = None,
) -> PointSpec:
    """The experiment the common flags describe, at ``clients`` clients."""
    scenario = _scenario(args)
    return PointSpec(
        server=server or _server_spec(args),
        workload=WorkloadSpec(
            clients=clients, duration=args.duration,
            warmup=args.warmup, fluid=_fluid_config(args),
        ),
        machine=scenario.machine,
        network=scenario.network,
        seed=args.seed,
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--server", choices=("nio", "httpd", "staged", "amped"), default="nio"
    )
    parser.add_argument("--threads", type=int, default=1,
                        help="workers (nio/staged) or pool size (httpd)")
    parser.add_argument("--idle-timeout", type=float, default=15.0)
    parser.add_argument("--jvm-factor", type=float, default=1.05)
    parser.add_argument("--dynamic-pool", action="store_true",
                        help="httpd: manage the pool dynamically")
    parser.add_argument("--selector-strategy",
                        choices=("shared", "partitioned"), default="shared",
                        help="nio: selector sharing strategy")
    parser.add_argument("--cpus", type=int, default=1)
    parser.add_argument("--cpu-speed", type=float, default=1.0)
    parser.add_argument("--network", choices=sorted(_NETWORKS), default="1g")
    parser.add_argument("--duration", type=float, default=10.0)
    parser.add_argument("--warmup", type=float, default=16.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--fluid", action="store_true",
        help="aggregated fluid client population (million-client scale "
             "mode)",
    )
    parser.add_argument(
        "--fluid-budget", type=int, default=None, metavar="N",
        help="fluid: cap on concurrently materialised client slots "
             "(default 4096; 0 = uncapped, the population stays pinned "
             "discrete)",
    )


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for sweep points (0 = one per CPU; "
             "default serial). Results are identical to a serial run.",
    )


def _add_store(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", metavar="DIR", default=None,
        help="content-addressed run store: cached sweep points are "
             "reused, fresh ones persisted, interrupted runs resume. "
             "Results are identical to a store-less run.",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help=f"shorthand for --store {STORE_DIR}",
    )


def _store_dir(args: argparse.Namespace) -> Optional[str]:
    """The run-store directory the flags ask for, or ``None``."""
    return args.store or (STORE_DIR if args.resume else None)


def _mounted_store(args: argparse.Namespace):
    """The RunStore the flags ask for, or ``None``."""
    from .core import RunStore

    root = _store_dir(args)
    return RunStore(root) if root else None


def _print_cache_summary(store=None) -> None:
    """One summary block: workload caches, and the run store if mounted."""
    from .http import population_cache_stats
    from .workload import workload_cache_stats

    pop = population_cache_stats()
    wl = workload_cache_stats()
    print(
        f"\n[caches] file population: {pop['hits']} hits, "
        f"{pop['misses']} misses; surge workload: {wl['hits']} hits, "
        f"{wl['misses']} misses"
    )
    if store is not None:
        print(f"[caches] {store.summary()}")


def _run_profiled(fn):
    """Run ``fn`` under cProfile; print the top 20 by cumulative time.

    The profile prints even when ``fn`` raises, so a run that dies deep
    in the kernel still shows where the time went.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return fn()
    finally:
        profiler.disable()
        print("\n-- cProfile: top 20 by cumulative time ---------------------")
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.strip_dirs().sort_stats("cumulative").print_stats(20)


def cmd_run(args: argparse.Namespace) -> int:
    experiment = _point(args, args.clients).experiment()
    if args.profile:
        metrics = _run_profiled(experiment.run)
    else:
        metrics = experiment.run()
    for key, value in metrics.row().items():
        print(f"{key:>12s}: {value}")
    if args.stats:
        for key, value in sorted(metrics.server_stats.items()):
            print(f"{key:>24s}: {value}")
    _print_cache_summary()
    return 0


def cmd_observe(args: argparse.Namespace) -> int:
    """One instrumented run: phase profile, histograms, breakdown."""
    import json

    from .obs import spans_to_chrome_trace, spans_to_jsonl
    from .obs.report import (
        format_phase_table,
        format_registry_table,
        render_slowest,
    )

    import dataclasses

    spec = dataclasses.replace(_server_spec(args), observe=True)
    experiment = _point(args, args.clients, spec).experiment()
    metrics = experiment.run()
    recorder, profiler = experiment.recorder, experiment.profiler

    print(f"{spec.label} | {args.cpus} cpu | {args.network} | "
          f"{args.clients} clients: {metrics.throughput_rps:.1f} replies/s")
    print("\n-- CPU seconds by phase ------------------------------------")
    print(profiler.table())
    print("\n-- lifecycle-phase latency histograms ----------------------")
    print(format_phase_table(recorder.registry))
    print("\n-- span counters -------------------------------------------")
    print(format_registry_table(recorder.registry))
    b = recorder.breakdown()
    print("\n-- queue-wait vs service breakdown -------------------------")
    print(f"  queue wait: {b['queue_wait_s']:12.1f} s  "
          f"({b['queue_share'] * 100:5.1f}%)   <- includes failed conns")
    print(f"  service:    {b['service_s']:12.1f} s  "
          f"({b['service_share'] * 100:5.1f}%)")
    slowest = render_slowest(recorder, n=args.slowest)
    if slowest:
        print("\n-- slowest connections -------------------------------------")
        print(slowest)
    if args.spans:
        with open(args.spans, "w") as fh:
            fh.write(spans_to_jsonl(recorder.spans))
        print(f"\nwrote {len(recorder)} spans to {args.spans} "
              f"({recorder.dropped} evicted from the ring)")
    if args.chrome:
        with open(args.chrome, "w") as fh:
            json.dump(spans_to_chrome_trace(recorder.spans), fh)
        print(f"wrote Chrome trace to {args.chrome} "
              f"(load in chrome://tracing or ui.perfetto.dev)")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    server = _server_spec(args)
    specs = [_point(args, c, server) for c in args.clients]
    scenario = _scenario(args).name
    store = _mounted_store(args)
    if args.reps:
        # Adaptive replication: every client count measured at several
        # seeds until the CI half-width target (--ci) is met.
        from .core import ReplicationPolicy, replicated_table, run_replicated

        lo, hi = args.reps
        try:
            policy = ReplicationPolicy(
                min_replicates=lo, max_replicates=hi, rel_halfwidth=args.ci
            )
        except ValueError as exc:
            print(f"bad --reps/--ci: {exc}", file=sys.stderr)
            return 2
        points = run_replicated(
            specs, policy, jobs=args.jobs, store=store
        )
        print(replicated_table(
            points, title=f"{server.label} @ {scenario} (adaptive)"
        ))
    else:
        points = run_points(specs, jobs=args.jobs, store=store)
        print(SweepResult(server.label, scenario, points).table())
    _print_cache_summary(store)
    return 0


def _parse_mix(text: str, cpu_speed: float):
    """``kind:threads[@speed],...`` -> tuple of ReplicaSpec."""
    from .cluster import ReplicaSpec

    replicas = []
    for i, entry in enumerate(t for t in text.split(",") if t.strip()):
        entry = entry.strip()
        speed = cpu_speed
        if "@" in entry:
            entry, _, speed_text = entry.partition("@")
            speed = float(speed_text)
        kind, _, threads = entry.partition(":")
        replicas.append(ReplicaSpec(
            rid=f"r{i}",
            server=ServerSpec(kind=kind, threads=int(threads or 1)),
            machine=MachineSpec(cpus=1, cpu_speed=speed),
        ))
    return tuple(replicas)


def _parse_classes(text: str):
    """``name:weight:bw_mbps:rtt_ms:loss[:adversary];...`` -> class specs."""
    from .cluster import ClientClassSpec

    classes = []
    for entry in (t for t in text.split(";") if t.strip()):
        parts = entry.strip().split(":")
        if len(parts) < 5:
            raise ValueError(
                f"bad class {entry!r}; expected "
                "name:weight:bw_mbps:rtt_ms:loss[:adversary]"
            )
        classes.append(ClientClassSpec(
            name=parts[0],
            weight=float(parts[1]),
            bandwidth_bps=float(parts[2]) * 1e6,
            rtt_s=float(parts[3]) / 1e3,
            loss=float(parts[4]),
            adversary=parts[5] if len(parts) > 5 else "",
        ))
    return tuple(classes)


def _cluster_overload(args: argparse.Namespace):
    """The per-replica admission policy the flags ask for, or None."""
    if args.admission == "none":
        return None
    from .overload import LIFO, CoDelShedder, OverloadControl, TokenBucket

    if args.admission == "token-bucket":
        return OverloadControl(
            admission=TokenBucket(rate=args.rate, burst=64.0)
        )
    return OverloadControl(
        admission=CoDelShedder(target=0.05, interval=0.5), discipline=LIFO
    )


def _cluster_parts(args: argparse.Namespace):
    """(ClusterSpec, flash, restart) for the cluster/trace flag set."""
    import dataclasses as dc

    from .cluster import (
        BalancerSpec,
        CacheSpec,
        ClusterSpec,
        FlashCrowdSpec,
        ReplicaSpec,
        RollingRestartSpec,
    )

    if args.mix:
        replicas = _parse_mix(args.mix, args.cpu_speed)
    else:
        replicas = tuple(
            ReplicaSpec(
                rid=f"r{i}",
                server=ServerSpec(kind=args.server, threads=args.threads),
                machine=MachineSpec(cpus=1, cpu_speed=args.cpu_speed),
            )
            for i in range(args.replicas)
        )
    overload = _cluster_overload(args)
    if overload is not None:
        replicas = tuple(
            dc.replace(r, server=dc.replace(r.server, overload=overload))
            for r in replicas
        )
    cache = (
        CacheSpec(capacity_bytes=args.cache_mb * 1024 * 1024)
        if args.cache_mb
        else None
    )
    kwargs = {}
    if args.classes:
        kwargs["classes"] = _parse_classes(args.classes)
    elif args.scenario == "slowloris":
        from .cluster import ClientClassSpec

        kwargs["classes"] = (
            ClientClassSpec("wan"),
            ClientClassSpec(
                "attack", weight=args.attack_weight, adversary="slowloris"
            ),
        )
    cluster = ClusterSpec(
        replicas=replicas,
        balancer=BalancerSpec(
            policy=args.policy,
            vnodes=args.vnodes,
            hot_fraction=args.hot_fraction,
            hot_keys=args.hot_keys,
        ),
        cache=cache,
        **kwargs,
    )

    flash = None
    restart = None
    if args.scenario == "flash":
        at = (
            args.surge_at
            if args.surge_at is not None
            else args.warmup + args.duration * 0.25
        )
        flash = FlashCrowdSpec(
            at=at, surge_clients=args.surge_clients, decay=args.surge_decay
        )
    elif args.scenario == "restart":
        rid = args.restart_rid or replicas[0].rid
        restart = RollingRestartSpec(
            rid=rid,
            drain_at=(
                args.drain_at
                if args.drain_at is not None
                else args.warmup + args.duration * 0.2
            ),
            down_at=(
                args.down_at
                if args.down_at is not None
                else args.warmup + args.duration * 0.4
            ),
            up_at=(
                args.up_at
                if args.up_at is not None
                else args.warmup + args.duration * 0.6
            ),
            warm_s=args.warm_s,
        )
    return cluster, flash, restart


def cmd_cluster(args: argparse.Namespace) -> int:
    """Run a replica tier behind a load balancer."""
    from .cluster import hit_rate_sweep, sweep_cluster

    if args.cache_sweep:
        from .http.files import FilePopulation

        files = FilePopulation.shared(args.seed, n_files=2000)
        capacities = [
            int(float(mb) * 1024 * 1024)
            for mb in args.cache_sweep.split(",")
        ]
        print("LRU capacity vs hit rate (SURGE population, "
              f"seed {args.seed}):")
        for capacity, rate in hit_rate_sweep(files, capacities, args.seed):
            print(f"  {capacity / (1024 * 1024):8.1f} MB: "
                  f"{rate * 100:5.1f}% hits")
        return 0

    cluster, flash, restart = _cluster_parts(args)
    store = _mounted_store(args)
    result = sweep_cluster(
        cluster,
        args.clients,
        duration=args.duration,
        warmup=args.warmup,
        seed=args.seed,
        flash=flash,
        restart=restart,
        jobs=args.jobs,
        store=store,
    )
    print(result.table())
    if args.stats:
        from .metrics.report import format_table

        for point in result.points:
            stats = point.server_stats
            rows = []
            for rspec in cluster.replicas:
                prefix = f"replica.{rspec.rid}."
                row = {"replica": rspec.rid}
                for key in sorted(stats):
                    if key.startswith(prefix):
                        row[key[len(prefix):]] = stats[key]
                if len(row) > 1:
                    rows.append(row)
            if rows:
                print()
                print(format_table(
                    rows, title=f"{point.clients} clients: per-replica"
                ))
            extras = {
                k: v
                for k, v in sorted(stats.items())
                if k.split(".")[0] in
                ("lb", "cache", "wan", "attack", "restart",
                 "trace", "slo", "obs")
                or k in ("tombstones_compacted", "requests_shed",
                         "samples_dropped", "spans_unfinished")
            }
            for key, value in extras.items():
                print(f"{key:>32s}: {value}")
    _print_cache_summary(store)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """One observed cluster run: attribution, waterfalls, SLO summary."""
    import dataclasses as dc
    import json

    from .cluster import ClusterPointSpec
    from .obs import (
        attribution_summary,
        default_slos,
        render_waterfall,
        traces_to_chrome_trace,
        traces_to_jsonl,
    )

    cluster, flash, restart = _cluster_parts(args)
    cluster = dc.replace(
        cluster, observe=True, slos=default_slos() if args.slo else ()
    )
    clients = args.clients[0]
    point = ClusterPointSpec(
        cluster=cluster,
        workload=WorkloadSpec(
            clients=clients, duration=args.duration, warmup=args.warmup
        ),
        seed=args.seed,
        flash=flash,
        restart=restart,
    )
    experiment = point.experiment()
    metrics = experiment.run()
    telemetry = experiment.telemetry
    tracer = telemetry.tracer

    print(
        f"{cluster.label} | {clients} clients | {args.scenario}: "
        f"{metrics.throughput_rps:.1f} replies/s, "
        f"p99 {metrics.response_time_p99 * 1e3:.1f} ms"
    )
    print(
        f"traces: {tracer.recorded} recorded, {tracer.dropped} evicted "
        f"from the ring, {len(tracer)} retained"
    )
    summary = attribution_summary(tracer.traces)
    total = sum(summary.values())
    print("\n-- per-tier time attribution (retained traces) -------------")
    for tier, seconds in sorted(summary.items(), key=lambda kv: -kv[1]):
        share = (seconds / total * 100.0) if total > 0 else 0.0
        print(f"  {tier:>8s}: {seconds:10.4f} s  ({share:5.1f}%)")
    slowest = tracer.slowest(args.top)
    if slowest:
        print(f"\n-- {len(slowest)} slowest requests -----------------------------")
        for trace in slowest:
            print(render_waterfall(trace))
            print()
    for monitor in telemetry.monitors:
        spec = monitor.spec
        line = (
            f"slo {spec.name} ({spec.kind}): {monitor.events} events, "
            f"{monitor.bad_events} bad, {len(monitor.alerts)} alert(s)"
        )
        for alert in monitor.alerts:
            line += f"; fired at t={alert.fired_at:.3f}s"
            if alert.resolved_at is not None:
                line += f", resolved t={alert.resolved_at:.3f}s"
        print(line)
    if args.jsonl:
        with open(args.jsonl, "w") as fh:
            fh.write(traces_to_jsonl(tracer.traces))
        print(f"\nwrote {len(tracer)} traces to {args.jsonl}")
    if args.chrome:
        with open(args.chrome, "w") as fh:
            json.dump(traces_to_chrome_trace(slowest), fh)
        print(f"wrote Chrome trace of the {len(slowest)} slowest "
              f"requests to {args.chrome} (chrome://tracing or "
              f"ui.perfetto.dev)")
    return 0


def _figure_runner(args: argparse.Namespace) -> FigureRunner:
    """The FigureRunner the ``figure``/``figures`` flags ask for."""
    return FigureRunner(
        profile=PROFILES[args.profile], verbose=True, jobs=args.jobs,
        store=_mounted_store(args),
    )


def cmd_figure(args: argparse.Namespace) -> int:
    if not 1 <= args.number <= 10:
        print("figure number must be 1-10", file=sys.stderr)
        return 2
    runner = _figure_runner(args)
    figs = getattr(runner, f"figure_{args.number}")()
    for fig in figs:
        print()
        print(fig.table())
        if args.chart:
            print()
            print(fig.chart(logy=args.logy))
    _print_cache_summary(runner.store)
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    """Regenerate every paper figure; optionally dump them all as JSON."""
    import json

    runner = _figure_runner(args)
    all_figs = runner.all_figures()
    for name in sorted(all_figs, key=lambda n: int(n.split("_")[1])):
        for fig in all_figs[name]:
            print()
            print(fig.table())
    if args.json:
        payload = {
            name: [fig.to_dict() for fig in figs]
            for name, figs in all_figs.items()
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"\nwrote {args.json}")
    _print_cache_summary(runner.store)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Benchmark the pipeline itself (see repro.core.perf)."""
    from .core import perf

    def bench() -> int:
        kernel = perf.measure_kernel(label=args.label)
        perf.write_json(kernel, args.kernel_out)
        for name, row in kernel["benchmarks"].items():
            print(f"[kernel] {name:>20s}: "
                  f"{row['events_per_second']:>12,.0f} ev/s")
        print(f"wrote {args.kernel_out}")

        if not args.skip_scale:
            scale = perf.measure_scale(label=args.label)
            for point in scale["points"]:
                rss_mb = point["peak_rss_bytes"] / (1024 * 1024)
                print(
                    f"[scale] {point['clients']:>9,d} sessions: "
                    f"{point['wall_seconds']:7.1f} s wall, "
                    f"{rss_mb:7.0f} MB peak RSS, "
                    f"{point['row']['replies/s']:>9,.1f} replies/s, "
                    f"{point['row']['timeout/s']:>10,.1f} timeout/s"
                )
            perf.write_json(scale, args.scale_out)
            print(f"wrote {args.scale_out}")

        if not args.skip_figures:
            report = perf.measure_figures(
                profile=args.profile,
                jobs=0 if args.jobs is None else args.jobs,
                label=args.label, store_dir=_store_dir(args),
            )
            store = report["store"]
            cold = " (pre-warmed store)" if store["prewarmed"] else ""
            print(f"[figures] serial   {report['serial_seconds']:8.2f} s"
                  f"{cold}")
            print(f"[figures] jobs={report['jobs']:<3d} "
                  f"{report['parallel_seconds']:8.2f} s")
            print(f"[figures] speedup  {report['speedup']:8.2f}x")
            print(f"[figures] warm     {store['warm_seconds']:8.2f} s "
                  f"({store['warm_speedup']:.1f}x vs cold, "
                  f"{store['warm_stats']['hits']} store hits)")
            perf.write_json(report, args.figures_out)
            print(f"wrote {args.figures_out}")
        return 0

    return _run_profiled(bench) if args.cprofile else bench()


def parse_age(text: str) -> float:
    """Age string -> seconds: bare seconds or 90s / 15m / 24h / 7d."""
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    text = text.strip()
    scale = units.get(text[-1:].lower())
    if scale is not None:
        text = text[:-1]
    else:
        scale = 1.0
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad age {text!r}; expected e.g. 90, 90s, 15m, 24h or 7d"
        )
    if value < 0:
        raise argparse.ArgumentTypeError("age must be >= 0")
    return value * scale


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect (``ls``) or clean (``gc``) the content-addressed run store."""
    from .core import RunStore
    from .metrics.report import format_table

    store = RunStore(args.store)
    if args.action == "ls":
        rows = store.ls()
        if not rows:
            print(f"{store.root}: empty store")
            return 0
        for row in rows:
            row["current"] = "yes" if row["current"] else "STALE"
        print(format_table(
            rows,
            title=f"{store.root} (fingerprint {store.fingerprint})",
        ))
        stale = sum(1 for r in rows if r["current"] == "STALE")
        print(f"\n{len(rows)} entries, {stale} stale "
              f"(run `repro cache gc` to drop stale entries)")
        return 0
    if args.action == "gc":
        removed = store.gc(
            all_entries=args.all, older_than_s=args.older_than
        )
        what = "entries" if args.all else "stale entries"
        if args.older_than is not None and not args.all:
            what += f" (or older than {args.older_than:.0f}s)"
        print(f"{store.root}: removed {removed} {what}, "
              f"{len(store)} remain")
        return 0
    print(f"unknown cache action {args.action!r}", file=sys.stderr)
    return 2


def cmd_profiles(_args: argparse.Namespace) -> int:
    for name, profile in PROFILES.items():
        print(
            f"{name:>9s}: {profile.points} points over "
            f"{profile.clients[0]}-{profile.clients[-1]} clients, "
            f"duration={profile.duration}s warmup={profile.warmup}s"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction toolkit for 'Evaluating the Scalability of "
            "Java Event-Driven Web Servers' (ICPP 2004)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _add_common(p_run)
    p_run.add_argument("--clients", type=parse_clients, default=2400,
                       help="client count; k/M suffixes allowed (250k, 1M)")
    p_run.add_argument("--stats", action="store_true",
                       help="also print server-side counters")
    p_run.add_argument("--profile", action="store_true",
                       help="run under cProfile and print the top 20 "
                            "functions by cumulative time")
    p_run.set_defaults(fn=cmd_run)

    p_obs = sub.add_parser(
        "observe",
        help="run one instrumented experiment and print the span report",
    )
    _add_common(p_obs)
    p_obs.add_argument("--clients", type=parse_clients, default=2400,
                       help="client count; k/M suffixes allowed (250k, 1M)")
    p_obs.add_argument("--slowest", type=int, default=3,
                       help="render timelines of the N slowest connections")
    p_obs.add_argument("--spans", metavar="FILE",
                       help="dump retained spans as JSONL")
    p_obs.add_argument("--chrome", metavar="FILE",
                       help="dump a Chrome trace_event JSON file")
    p_obs.set_defaults(fn=cmd_observe)

    p_sweep = sub.add_parser("sweep", help="sweep client counts")
    _add_common(p_sweep)
    p_sweep.add_argument(
        "--clients", type=parse_client_list,
        default="60,1200,2400,3600,4800,6000",
        help="comma-separated client counts; k/M suffixes allowed "
             "(e.g. 100k,250k,500k,1M)",
    )
    p_sweep.add_argument(
        "--reps", type=parse_reps, metavar="MIN:MAX", default=None,
        help="adaptive replication: run each point at MIN..MAX seeds, "
             "stopping once the CI half-width target (--ci) is met",
    )
    p_sweep.add_argument(
        "--ci", type=float, default=0.05, metavar="REL",
        help="target relative 95%% CI half-width for --reps "
             "(default 0.05 = ±5%%)",
    )
    _add_jobs(p_sweep)
    _add_store(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep)

    def _add_cluster_flags(p: argparse.ArgumentParser) -> None:
        """Flags shared by the ``cluster`` and ``trace`` subcommands."""
        p.add_argument(
            "--replicas", type=int, default=3, metavar="N",
            help="number of identical replicas (ignored with --mix)",
        )
        p.add_argument(
            "--mix", default=None, metavar="SPEC",
            help="heterogeneous replicas: 'kind:threads[@cpu_speed],...' "
                 "e.g. 'nio:1,nio:1,httpd:512@0.5'",
        )
        p.add_argument(
            "--server", choices=("nio", "httpd", "staged", "amped"),
            default="nio",
        )
        p.add_argument("--threads", type=int, default=1)
        p.add_argument(
            "--cpu-speed", type=float, default=0.35,
            help="per-replica CPU speed (fraction of the paper's SUT; "
                 "default deliberately under-provisioned)",
        )
        p.add_argument(
            "--policy",
            choices=("round_robin", "least_connections", "consistent_hash"),
            default="round_robin",
        )
        p.add_argument("--vnodes", type=int, default=64,
                       help="consistent_hash: vnodes per replica")
        p.add_argument("--hot-fraction", type=float, default=0.0,
                       help="consistent_hash: hot-key skew fraction")
        p.add_argument("--hot-keys", type=int, default=8,
                       help="consistent_hash: hot key set size")
        p.add_argument("--cache-mb", type=int, default=0,
                       help="mount an LRU front cache of this size")
        p.add_argument(
            "--classes", default=None, metavar="SPEC",
            help="WAN classes: 'name:weight:bw_mbps:rtt_ms:loss[:adversary]"
                 ";...' e.g. 'dsl:1:8:60:0.02;lan:1:1000:1:0'",
        )
        p.add_argument(
            "--scenario",
            choices=("steady", "flash", "slowloris", "restart"),
            default="steady",
        )
        p.add_argument("--surge-clients", type=int, default=600)
        p.add_argument("--surge-at", type=float, default=None,
                       help="flash: absolute surge time (default "
                            "warmup + 25%% of duration)")
        p.add_argument("--surge-decay", type=float, default=1.5)
        p.add_argument("--attack-weight", type=float, default=0.5,
                       help="slowloris: attack class weight vs the "
                            "legit class's 1.0")
        p.add_argument("--restart-rid", default=None)
        p.add_argument("--drain-at", type=float, default=None)
        p.add_argument("--down-at", type=float, default=None)
        p.add_argument("--up-at", type=float, default=None)
        p.add_argument("--warm-s", type=float, default=3.0)
        p.add_argument(
            "--admission", choices=("none", "token-bucket", "codel"),
            default="none", help="per-replica admission policy",
        )
        p.add_argument("--rate", type=float, default=520.0,
                       help="token-bucket: admitted conn/s per replica")
        p.add_argument("--duration", type=float, default=10.0)
        p.add_argument("--warmup", type=float, default=16.0)
        p.add_argument("--seed", type=int, default=42)

    p_cluster = sub.add_parser(
        "cluster",
        help="run a replica tier behind a load balancer "
             "(steady/flash/slowloris/restart scenarios)",
    )
    _add_cluster_flags(p_cluster)
    p_cluster.add_argument(
        "--cache-sweep", default=None, metavar="MB,MB,...",
        help="print the capacity-vs-hit-rate curve and exit",
    )
    p_cluster.add_argument("--clients", type=parse_client_list,
                           default="150,300",
                           help="comma-separated client counts")
    p_cluster.add_argument("--stats", action="store_true",
                           help="also print per-replica and front-end "
                                "counters (incl. trace/slo/obs extras)")
    _add_jobs(p_cluster)
    _add_store(p_cluster)
    p_cluster.set_defaults(fn=cmd_cluster)

    p_trace = sub.add_parser(
        "trace",
        help="run one observed cluster point and print causal traces: "
             "per-tier attribution, slowest-request waterfalls, SLOs",
    )
    _add_cluster_flags(p_trace)
    p_trace.add_argument("--clients", type=parse_client_list,
                         default="150",
                         help="client count (first entry if a list)")
    p_trace.add_argument("--top", type=int, default=3,
                         help="render waterfalls of the N slowest requests")
    p_trace.add_argument("--slo", action="store_true",
                         help="mount the stock availability+latency SLOs "
                              "and report burn-rate alerts")
    p_trace.add_argument("--jsonl", metavar="FILE",
                         help="dump every retained trace as JSONL")
    p_trace.add_argument("--chrome", metavar="FILE",
                         help="dump the slowest traces as Chrome "
                              "trace_event JSON")
    p_trace.set_defaults(fn=cmd_trace)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("number", type=int, help="paper figure number (1-10)")
    p_fig.add_argument("--profile", choices=sorted(PROFILES), default="quick")
    p_fig.add_argument("--chart", action="store_true",
                       help="also render ASCII charts")
    p_fig.add_argument("--logy", action="store_true",
                       help="log-scale chart y-axis")
    _add_jobs(p_fig)
    _add_store(p_fig)
    p_fig.set_defaults(fn=cmd_figure)

    p_figs = sub.add_parser(
        "figures", help="regenerate every paper figure"
    )
    p_figs.add_argument("--profile", choices=sorted(PROFILES),
                        default="quick")
    p_figs.add_argument("--json", metavar="FILE",
                        help="also dump every figure's data as JSON")
    _add_jobs(p_figs)
    _add_store(p_figs)
    p_figs.set_defaults(fn=cmd_figures)

    p_cache = sub.add_parser(
        "cache",
        help="inspect or garbage-collect the content-addressed run store",
    )
    p_cache.add_argument("action", choices=("ls", "gc"))
    p_cache.add_argument("--store", metavar="DIR", default=STORE_DIR,
                         help="store directory (default %(default)s)")
    p_cache.add_argument("--all", action="store_true",
                         help="gc: drop every entry, not just stale ones")
    p_cache.add_argument("--older-than", type=parse_age, default=None,
                         metavar="AGE",
                         help="gc: also drop entries older than AGE "
                              "(seconds, or 90s/15m/24h/7d), regardless "
                              "of fingerprint")
    p_cache.set_defaults(fn=cmd_cache)

    p_bench = sub.add_parser(
        "bench",
        help="benchmark the pipeline: kernel events/sec + figure wall-clock",
    )
    p_bench.add_argument("--profile", choices=sorted(PROFILES),
                         default="quick")
    p_bench.add_argument("--kernel-out", default="BENCH_kernel.json")
    p_bench.add_argument("--figures-out", default="BENCH_figures.json")
    p_bench.add_argument("--scale-out", default="BENCH_scale.json")
    p_bench.add_argument("--label", default="",
                         help="free-form tag recorded in the artifacts")
    p_bench.add_argument("--skip-figures", action="store_true",
                         help="only run the kernel micro-benchmarks")
    p_bench.add_argument("--skip-scale", action="store_true",
                         help="skip the fluid-population scale sweep")
    p_bench.add_argument("--cprofile", action="store_true",
                         help="run under cProfile and print the top 20 "
                              "functions by cumulative time (--profile "
                              "already names the measurement profile "
                              "here, hence the different spelling)")
    _add_jobs(p_bench)
    _add_store(p_bench)
    p_bench.set_defaults(fn=cmd_bench)

    p_prof = sub.add_parser("profiles", help="list measurement profiles")
    p_prof.set_defaults(fn=cmd_profiles)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
