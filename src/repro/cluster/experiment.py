"""ClusterExperiment: N replicas + balancer + cache + WAN classes.

One run builds, inside a single deterministic :class:`~repro.sim.core.
Simulator`, a full front end: every replica is a
:class:`~repro.core.experiment.SystemUnderTest` — its own
:class:`~repro.osmodel.machine.Machine`, :class:`~repro.net.tcp.
ListenSocket` and server instance (its own copy of the overload-control
state, made by ``build_server``), built and measured as a single-server
:class:`~repro.core.experiment.Experiment` builds its one — plus a tier
:class:`~repro.metrics.collectors.MetricsHub`; the client side gets one
shared :class:`~repro.cluster.balancer.LoadBalancer`, an optional
:class:`~repro.cluster.cache.LruCache` tier, and one
:class:`~repro.net.link.DuplexLink` per WAN client class (bandwidth,
RTT, loss from the class spec).

Determinism contract (pinned in ``tests/test_cluster_experiment.py``):

* per-replica RNG streams derive from ``(seed, rid)`` — stream names
  ``"replica[{rid}]"`` / ``"wanloss[{class}]"`` — never from list
  position, and :class:`~repro.cluster.spec.ClusterSpec` normalises
  replica order, so reordering replicas in user code changes nothing;
* routing keys come from dedicated ``route`` streams, workload sampling
  from ``cluster-client`` streams, so policies that ignore keys consume
  zero extra randomness.

Every reply, error and connection lands in the aggregate hub and in
the hub of one tier (see :class:`~repro.cluster.clients.FanoutMetrics`,
whose shared ``tier`` can credit a reply to another replica than the
one that served it).

The rolling-restart driver runs in simulated time via ``call_later``:
drain (stop new routes), down (reset every connection still open on the
replica), warming (error-diffusion ramp back to full share).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..http.files import FilePopulation
from ..metrics.collectors import MetricsHub
from ..metrics.report import RunMetrics
from ..net.link import DuplexLink
from ..net.topology import WIRE_EFFICIENCY
from ..sim.core import Simulator
from ..sim.rng import RandomStreams
from ..workload.surge import SurgeWorkload
from ..core.experiment import SystemUnderTest
from ..core.params import WorkloadSpec
from ..core.runner import run_points
from ..core.sweep import SweepResult
from .balancer import DOWN, DRAINING, WARMING, LoadBalancer, make_balancer
from .cache import LruCache
from .clients import ClusterLoadGenerator, FanoutMetrics, TierMetrics
from .spec import (
    ClusterPointSpec,
    ClusterSpec,
    FlashCrowdSpec,
    ReplicaSpec,
    RollingRestartSpec,
)

__all__ = ["ReplicaRuntime", "ClusterExperiment", "sweep_cluster"]


class ReplicaRuntime(SystemUnderTest):
    """One live replica of a cluster run: its system under test, its tier
    hub and the connections leased to it."""

    __slots__ = ("rid", "metrics", "live_conns")

    def __init__(
        self,
        sim: Simulator,
        rspec: ReplicaSpec,
        streams: RandomStreams,
        workload: WorkloadSpec,
        recorder=None,
        probe=None,
    ) -> None:
        super().__init__(
            sim, rspec.machine, rspec.server, recorder=recorder, probe=probe
        )
        self.rid = rspec.rid
        # Replica streams key off (seed, rid), so a replica's reservoir
        # seed survives any reordering of the spec.
        rng = streams.stream(f"replica[{rspec.rid}]")
        hub = MetricsHub(
            sim,
            warmup=workload.warmup,
            duration=workload.duration,
            stat_seed=int(rng.integers(1 << 31)),
        )
        self.metrics = TierMetrics(rspec.rid, hub)
        #: Connections currently leased to this replica (insertion-
        #: ordered dict as an ordered set) — reset wholesale on kill.
        self.live_conns: Dict = {}

    def kill_connections(self) -> int:
        """The replica died: server-close every connection it holds."""
        conns = list(self.live_conns)
        self.live_conns.clear()
        for conn in conns:
            conn.server_close()
        return len(conns)


@dataclass
class ClusterExperiment:
    """A fully specified cluster run; deterministic for a seed."""

    cluster: ClusterSpec
    workload: WorkloadSpec
    seed: int = 42
    flash: Optional[FlashCrowdSpec] = None
    restart: Optional[RollingRestartSpec] = None

    def __post_init__(self) -> None:
        #: Populated by run(): per-replica RunMetrics in rid order, the
        #: balancer and the recorder.
        self.replica_metrics: Dict[str, RunMetrics] = {}
        self.balancer: Optional[LoadBalancer] = None
        self.recorder = None
        #: The :class:`~repro.cluster.telemetry.ClusterTelemetry` when
        #: the spec says ``observe=True`` (tracer, series, SLOs).
        self.telemetry = None

    # ------------------------------------------------------------------
    def _schedule_restart(
        self, sim: Simulator, balancer: LoadBalancer, runtime: ReplicaRuntime
    ) -> List[int]:
        """Wire the drain -> down -> warm sequence; returns a kill box."""
        plan = self.restart
        killed = [0]

        def go_down() -> None:
            balancer.set_state(plan.rid, DOWN)
            killed[0] = runtime.kill_connections()

        sim.call_later(plan.drain_at, balancer.set_state, plan.rid, DRAINING)
        sim.call_later(plan.down_at, go_down)
        sim.call_later(
            plan.up_at, balancer.set_state, plan.rid, WARMING, plan.warm_s
        )
        return killed

    # ------------------------------------------------------------------
    def run(self) -> RunMetrics:
        """Build the front end, run to steady state, return aggregates."""
        sim = Simulator()
        streams = RandomStreams(self.seed)
        if self.cluster.observe:
            from .telemetry import ClusterTelemetry

            self.telemetry = ClusterTelemetry(
                sim, self.seed, slos=self.cluster.slos
            )
            self.recorder = self.telemetry.recorder

        telemetry = self.telemetry
        runtimes = [
            ReplicaRuntime(
                sim,
                rspec,
                streams,
                self.workload,
                recorder=self.recorder,
                probe=(
                    telemetry.probe(rspec.rid)
                    if telemetry is not None
                    else None
                ),
            )
            for rspec in self.cluster.replicas
        ]
        by_rid = {rt.rid: rt for rt in runtimes}
        balancer = make_balancer(
            self.cluster.balancer, runtimes, clock=lambda: sim.now
        )
        balancer.telemetry = self.telemetry
        self.balancer = balancer

        cache = None
        cache_tier = None
        if self.cluster.cache is not None:
            cache = LruCache(
                self.cluster.cache.capacity_bytes,
                hit_service_s=self.cluster.cache.hit_service_s,
            )
            cache_rng = streams.stream("cache-tier")
            cache_tier = TierMetrics(
                "cache",
                MetricsHub(
                    sim,
                    warmup=self.workload.warmup,
                    duration=self.workload.duration,
                    stat_seed=int(cache_rng.integers(1 << 31)),
                ),
            )

        # One shared duplex per WAN class (the class's access pipe).
        class_links: Dict[str, DuplexLink] = {}
        for cls in self.cluster.classes:
            loss_rng = (
                streams.stream(f"wanloss[{cls.name}]")
                if cls.loss > 0.0
                else None
            )
            class_links[cls.name] = DuplexLink(
                sim,
                cls.bandwidth_bps / 8.0 * WIRE_EFFICIENCY,
                latency_s=cls.rtt_s / 2.0,
                name=f"wan-{cls.name}",
                loss=cls.loss,
                loss_rng=loss_rng,
            )

        files = FilePopulation.shared(self.seed, n_files=self.workload.n_files)
        surge = SurgeWorkload.shared(files, self.workload.surge)
        aggregate_hub = MetricsHub(
            sim, warmup=self.workload.warmup, duration=self.workload.duration
        )
        metrics = FanoutMetrics(aggregate_hub)
        metrics.telemetry = self.telemetry

        for runtime in runtimes:
            runtime.server.start()

        generator = ClusterLoadGenerator(
            sim,
            self.cluster,
            balancer,
            class_links,
            surge,
            metrics,
            n_clients=self.workload.clients,
            streams=streams,
            config=self.workload.httperf,
            cache=cache,
            cache_tier=cache_tier,
            flash=self.flash,
            telemetry=self.telemetry,
        )
        generator.start(ramp=self.workload.effective_ramp)

        killed = [0]
        if self.restart is not None:
            killed = self._schedule_restart(
                sim, balancer, by_rid[self.restart.rid]
            )

        def snapshot() -> None:
            for rt in runtimes:
                rt.snapshot()

        sim.call_later(self.workload.warmup, snapshot)
        end = self.workload.warmup + self.workload.duration
        sim.run(until=end)

        # -- per-replica rows -------------------------------------------------
        self.replica_metrics = {}
        total_busy = 0.0
        total_capacity = 0.0
        aggregate_stats: Dict[str, object] = {}
        summed = {
            "requests_served": 0,
            "requests_shed": 0,
            "syns_dropped": 0,
            "connections_handled": 0,
        }
        for rt in runtimes:
            busy, capacity = rt.window_busy(self.workload.duration)
            total_busy += busy
            total_capacity += capacity
            util = min(1.0, busy / capacity if capacity else 0.0)
            server_stats = rt.server.stats()
            row = RunMetrics.from_hub(
                rt.metrics.hub,
                clients=self.workload.clients,
                cpu_utilization=util,
                server_stats=server_stats,
            )
            self.replica_metrics[rt.rid] = row
            prefix = f"replica.{rt.rid}."
            aggregate_stats[prefix + "replies"] = row.replies
            aggregate_stats[prefix + "throughput_rps"] = row.throughput_rps
            aggregate_stats[prefix + "response_p99_ms"] = round(
                row.response_time_p99 * 1e3, 3
            )
            aggregate_stats[prefix + "reset_rate"] = row.connection_reset_rate
            aggregate_stats[prefix + "cpu_utilization"] = row.cpu_utilization
            # Satellite: reservoir truncation was silently lost at the
            # FanoutMetrics merge — surface it per replica and in total.
            aggregate_stats[prefix + "samples_dropped"] = (
                rt.metrics.hub.samples_dropped
            )
            for key in summed:
                value = server_stats.get(key)
                if value is not None:
                    aggregate_stats[prefix + key] = value
                    summed[key] += value

        # Cluster-wide counters the old merge used to drop (satellite):
        # the kernel is shared, so tombstones_compacted is reported once,
        # and per-policy sheds survive both per-replica and summed.
        for key, value in summed.items():
            aggregate_stats[key] = value
        aggregate_stats["tombstones_compacted"] = sim.tombstones_compacted
        aggregate_stats["replicas"] = len(runtimes)
        aggregate_stats.update(balancer.stats())
        if self.restart is not None:
            aggregate_stats["restart.rid"] = self.restart.rid
            aggregate_stats["restart.connections_killed"] = killed[0]
            aggregate_stats["restart.picks_after_drain"] = (
                balancer.picks_after_drain(self.restart.rid)
            )
        aggregate_stats["samples_dropped"] = aggregate_hub.samples_dropped
        if cache is not None:
            aggregate_stats.update(cache.stats())
            aggregate_stats["cache.replies"] = cache_tier.hub.replies
            aggregate_stats["cache.samples_dropped"] = (
                cache_tier.hub.samples_dropped
            )
        for name, duplex in class_links.items():
            aggregate_stats[f"wan.{name}.bytes_down"] = duplex.down.bytes_sent
            aggregate_stats[f"wan.{name}.bytes_up"] = duplex.up.bytes_sent
            losses = duplex.up.losses + duplex.down.losses
            if losses:
                aggregate_stats[f"wan.{name}.losses"] = losses
        aggregate_stats.update(generator.stats())
        if self.recorder is not None:
            aggregate_stats["spans_unfinished"] = self.recorder.flush(
                "unfinished"
            )
            breakdown = self.recorder.breakdown()
            aggregate_stats["obs_queue_share"] = round(
                breakdown["queue_share"], 6
            )
            aggregate_stats["obs_service_share"] = round(
                breakdown["service_share"], 6
            )
        if self.telemetry is not None:
            # After the recorder flush above, so end-of-run harvested
            # spans are included in the trace counters.
            aggregate_stats.update(self.telemetry.stats())

        cluster_util = min(
            1.0, total_busy / total_capacity if total_capacity else 0.0
        )
        return RunMetrics.from_hub(
            aggregate_hub,
            clients=self.workload.clients,
            cpu_utilization=cluster_util,
            server_stats=aggregate_stats,
        )


def sweep_cluster(
    cluster: ClusterSpec,
    client_counts,
    duration: float = 10.0,
    warmup: float = 16.0,
    seed: int = 42,
    flash: Optional[FlashCrowdSpec] = None,
    restart: Optional[RollingRestartSpec] = None,
    jobs: Optional[int] = None,
    store=None,
    point_hook=None,
    workload=None,
) -> SweepResult:
    """Run one cluster configuration across ``client_counts``.

    Mirrors :func:`~repro.core.sweep.sweep_clients`: points flow through
    :func:`~repro.core.runner.run_points`, so ``--jobs`` parallelism and
    the content-addressed RunStore work unchanged for cluster points.
    ``workload`` optionally supplies a template WorkloadSpec whose
    non-client fields override ``duration``/``warmup``.
    """
    specs = []
    for n in client_counts:
        if workload is not None:
            wspec = dataclasses.replace(workload, clients=n)
        else:
            wspec = WorkloadSpec(clients=n, duration=duration, warmup=warmup)
        specs.append(
            ClusterPointSpec(
                cluster=cluster,
                workload=wspec,
                seed=seed,
                flash=flash,
                restart=restart,
            )
        )
    points = run_points(
        specs, jobs=jobs, point_hook=point_hook, store=store
    )
    scenario = "cluster"
    if flash is not None:
        scenario = "cluster-flash"
    elif restart is not None:
        scenario = "cluster-restart"
    return SweepResult(label=cluster.label, scenario=scenario, points=points)
