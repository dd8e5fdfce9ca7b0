"""The Experiment: one server + network + workload -> one RunMetrics.

This is the unit every figure of the paper is built from: pick a server
configuration, a machine (UP or 4-way SMP), a network (100 Mbit, 2x100
Mbit or 1 Gbit) and a client count, run to steady state, and report
httperf-style metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..http.files import FilePopulation
from ..metrics.collectors import MetricsHub
from ..metrics.report import RunMetrics
from ..net.tcp import ListenSocket
from ..net.topology import Network, NetworkSpec
from ..osmodel.machine import Machine, MachineSpec
from ..servers.base import Server
from ..sim.core import Simulator
from ..sim.rng import RandomStreams
from ..workload.httperf import LoadGenerator
from ..workload.surge import SurgeWorkload
from .params import ServerSpec, WorkloadSpec

__all__ = ["Experiment", "build_server"]


def build_server(
    spec: ServerSpec,
    sim: Simulator,
    machine: Machine,
    listener: ListenSocket,
) -> Server:
    """Instantiate the requested server architecture."""
    # Imported here so optional architectures stay decoupled.
    from ..http.protocol import HttpSemantics
    from ..servers.eventdriven import EventDrivenServer
    from ..servers.threadpool import ThreadPoolServer

    costs = machine.spec.base_costs()
    semantics = HttpSemantics(keep_alive=spec.keep_alive)
    overload = spec.overload
    if spec.kind == "nio":
        return EventDrivenServer(
            sim, machine, listener,
            workers=spec.threads, jvm_factor=spec.jvm_factor, costs=costs,
            selector_strategy=spec.selector_strategy, semantics=semantics,
            overload=overload,
        )
    if spec.kind == "httpd":
        return ThreadPoolServer(
            sim, machine, listener,
            pool_size=spec.threads, idle_timeout=spec.idle_timeout,
            costs=costs, dynamic=spec.dynamic_pool, semantics=semantics,
            overload=overload,
        )
    if spec.kind == "staged":
        from ..servers.staged import StagedServer

        return StagedServer(
            sim, machine, listener,
            threads_per_stage=spec.threads, jvm_factor=spec.jvm_factor,
            costs=costs, semantics=semantics, overload=overload,
        )
    if spec.kind == "amped":
        from ..servers.amped import AmpedServer

        return AmpedServer(
            sim, machine, listener, helpers=spec.helpers, costs=costs,
            semantics=semantics, overload=overload,
        )
    raise ValueError(f"unknown server kind {spec.kind!r}")


@dataclass
class Experiment:
    """A fully specified run; ``run()`` is deterministic for a seed."""

    server: ServerSpec
    workload: WorkloadSpec
    machine: MachineSpec = MachineSpec(cpus=1)
    network: NetworkSpec = None  # type: ignore[assignment]
    seed: int = 42
    #: Trace categories to record ("conn", "http", "error", "server");
    #: an empty tuple/None disables tracing.  After run(), the recorder
    #: is available as ``self.tracer``.
    trace: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.network is None:
            self.network = NetworkSpec.gigabit()
        self.tracer = None
        #: Populated by run() when ``server.observe`` is set.
        self.recorder = None
        self.profiler = None

    def run(self) -> RunMetrics:
        """Build the testbed, run to steady state, return the measurements."""
        sim = Simulator()
        if self.server.overload is not None:
            # Overload-control state (token buckets, CoDel timers,
            # counters) must not leak between sweep points: same seed =>
            # same shed decisions.
            self.server.overload.reset()
        streams = RandomStreams(self.seed)
        machine = Machine(sim, self.machine)
        if self.trace:
            from ..sim.trace import Tracer

            self.tracer = Tracer(sim, categories=self.trace)
        if self.server.observe:
            # Fresh per run: spans and phase attribution never leak
            # between sweep points, and determinism is preserved (the
            # observability layer uses no RNG and schedules no events).
            from ..obs import PhaseProfiler, SpanRecorder

            self.recorder = SpanRecorder(clock=lambda: sim.now)
            self.profiler = PhaseProfiler()
        listener = ListenSocket(
            sim,
            machine,
            costs=self.machine.base_costs(),
            backlog=self.server.backlog,
            tracer=self.tracer,
            recorder=self.recorder,
            profiler=self.profiler,
        )
        network = Network(sim, self.network)

        # Memoized per (seed, n_files): every point of a sweep shares one
        # immutable document set + precomputed distribution tables instead
        # of regenerating identical ones.  shared() derives the same
        # "files" stream this experiment's RandomStreams would, so results
        # are byte-identical.
        files = FilePopulation.shared(
            self.seed, n_files=self.workload.n_files
        )
        surge = SurgeWorkload.shared(files, self.workload.surge)
        metrics = MetricsHub(
            sim, warmup=self.workload.warmup, duration=self.workload.duration
        )

        server = build_server(self.server, sim, machine, listener)
        server.start()

        fluid = self.workload.fluid
        if fluid is not None:
            from ..workload.fluid import FluidLoadGenerator

            generator = FluidLoadGenerator(
                sim,
                listener,
                network,
                surge,
                metrics,
                n_clients=self.workload.clients,
                streams=streams,
                config=self.workload.httperf,
                fluid=fluid,
            )
        else:
            generator = LoadGenerator(
                sim,
                listener,
                network,
                surge,
                metrics,
                n_clients=self.workload.clients,
                streams=streams,
                config=self.workload.httperf,
            )
        generator.start(ramp=self.workload.effective_ramp)

        # Snapshot CPU busy-time at the window edges for utilisation.
        busy_at_start = [0.0]

        def snap() -> None:
            machine.cpu._sync()
            busy_at_start[0] = machine.cpu.busy_time

        sim.call_later(self.workload.warmup, snap)
        end = self.workload.warmup + self.workload.duration
        sim.run(until=end)

        machine.cpu._sync()
        busy = machine.cpu.busy_time - busy_at_start[0]
        cpu_util = busy / (
            self.workload.duration * machine.cpu.base_capacity
        )
        stats = server.stats()
        stats["downlink_utilization"] = round(
            network.downlink_utilization(end), 4
        )
        if fluid is not None:
            stats.update(generator.stats())
        if self.recorder is not None:
            # Close out every span still open at the end of the run —
            # clients stuck in SYN retransmission or waiting on replies.
            stats["spans_unfinished"] = self.recorder.flush("unfinished")
            breakdown = self.recorder.breakdown()
            stats["obs_queue_wait_s"] = round(breakdown["queue_wait_s"], 6)
            stats["obs_service_s"] = round(breakdown["service_s"], 6)
            stats["obs_queue_share"] = round(breakdown["queue_share"], 6)
            stats["obs_service_share"] = round(breakdown["service_share"], 6)
        if self.profiler is not None:
            # Scheduler loss is capacity the CPU could not sell because
            # of thread overhead — estimated from the final degradation
            # factor over the measurement window (not a CPU burst).
            cpu = machine.cpu
            loss = (
                self.workload.duration
                * cpu.base_capacity
                * (1.0 - cpu.capacity_factor)
            )
            if loss > 0.0:
                self.profiler.add("sched_overhead", loss)
        tracer_kwargs = {}
        if self.tracer is not None:
            tracer_kwargs["trace_dropped"] = self.tracer.dropped
            tracer_kwargs["trace_counts"] = self.tracer.counts_by_category()
        return RunMetrics.from_hub(
            metrics,
            clients=self.workload.clients,
            cpu_utilization=min(1.0, cpu_util),
            server_stats=stats,
            **tracer_kwargs,
        )

    # -- convenience ---------------------------------------------------------
    def describe(self) -> str:
        """One-line human-readable summary of the configuration."""
        return (
            f"{self.server.label} | {self.machine.cpus} cpu | "
            f"{self.network.name} | {self.workload.clients} clients"
        )
