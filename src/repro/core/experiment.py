"""The Experiment: one server + network + workload -> one RunMetrics.

This is the unit every figure of the paper is built from: pick a server
configuration, a machine (UP or 4-way SMP), a network (100 Mbit, 2x100
Mbit or 1 Gbit) and a client count, run to steady state, and report
httperf-style metrics.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Tuple

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

__all__ = ["Experiment", "SystemUnderTest", "build_server"]


def build_server(
    spec: ServerSpec,
    sim: Simulator,
    machine: Machine,
    listener: ListenSocket,
) -> Server:
    """Instantiate the requested server architecture.

    The server mounts its own deep copy of ``spec.overload``: policy
    state (token buckets, CoDel timers, counters) is per server, so runs
    of one spec and replicas of one cluster never share it.
    """
    # Imported here so optional architectures stay decoupled.
    from ..servers.eventdriven import EventDrivenServer
    from ..servers.threadpool import ThreadPoolServer

    overload = copy.deepcopy(spec.overload)
    if spec.kind == "nio":
        return EventDrivenServer(
            sim, machine, listener,
            workers=spec.threads, jvm_factor=spec.jvm_factor,
            selector_strategy=spec.selector_strategy, overload=overload,
        )
    if spec.kind == "httpd":
        return ThreadPoolServer(
            sim, machine, listener,
            pool_size=spec.threads, idle_timeout=spec.idle_timeout,
            dynamic=spec.dynamic_pool, overload=overload,
        )
    if spec.kind == "staged":
        from ..servers.staged import StagedServer

        return StagedServer(
            sim, machine, listener,
            threads_per_stage=spec.threads, jvm_factor=spec.jvm_factor,
            overload=overload,
        )
    if spec.kind == "amped":
        from ..servers.amped import AmpedServer

        return AmpedServer(
            sim, machine, listener, helpers=spec.helpers, overload=overload,
        )
    raise ValueError(f"unknown server kind {spec.kind!r}")


class SystemUnderTest:
    """One server's machine, listen socket and server.

    Both :class:`Experiment` and each cluster replica build their server
    here.  The caller starts the server and schedules :meth:`snapshot`
    at the end of warm-up; :meth:`window_busy` then gives the busy time
    and capacity behind the measurement window's CPU utilisation.
    """

    __slots__ = ("machine", "listener", "server", "_busy_at_warmup")

    def __init__(
        self,
        sim: Simulator,
        machine: MachineSpec,
        server: ServerSpec,
        recorder=None,
        profiler=None,
        probe=None,
    ) -> None:
        self.machine = Machine(sim, machine)
        self.listener = ListenSocket(
            sim,
            self.machine,
            backlog=server.backlog,
            recorder=recorder,
            profiler=profiler,
            probe=probe,
        )
        self.server = build_server(server, sim, self.machine, self.listener)
        self._busy_at_warmup = 0.0

    def snapshot(self) -> None:
        """Record the CPU busy time at the start of the window."""
        cpu = self.machine.cpu
        cpu._sync()
        self._busy_at_warmup = cpu.busy_time

    def window_busy(self, duration: float) -> Tuple[float, float]:
        """CPU busy seconds since :meth:`snapshot`, and the CPU capacity
        of a ``duration``-second window."""
        cpu = self.machine.cpu
        cpu._sync()
        busy = cpu.busy_time - self._busy_at_warmup
        return busy, duration * cpu.base_capacity


@dataclass
class Experiment:
    """A fully specified run; ``run()`` is deterministic for a seed."""

    server: ServerSpec
    workload: WorkloadSpec
    machine: MachineSpec = MachineSpec(cpus=1)
    network: NetworkSpec = None  # type: ignore[assignment]
    seed: int = 42

    def __post_init__(self) -> None:
        if self.network is None:
            self.network = NetworkSpec.gigabit()
        #: Populated by run() when ``server.observe`` is set.
        self.recorder = None
        self.profiler = None

    def run(self) -> RunMetrics:
        """Build the testbed, run to steady state, return the measurements."""
        sim = Simulator()
        streams = RandomStreams(self.seed)
        if self.server.observe:
            # Fresh per run: spans and phase attribution never leak
            # between sweep points, and determinism is preserved (the
            # observability layer uses no RNG and schedules no events).
            from ..obs import PhaseProfiler, SpanRecorder

            self.recorder = SpanRecorder(clock=lambda: sim.now)
            self.profiler = PhaseProfiler()
        sut = SystemUnderTest(
            sim,
            self.machine,
            self.server,
            recorder=self.recorder,
            profiler=self.profiler,
        )
        listener = sut.listener
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
        sut.server.start()

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

        sim.call_later(self.workload.warmup, sut.snapshot)
        end = self.workload.warmup + self.workload.duration
        sim.run(until=end)

        busy, capacity = sut.window_busy(self.workload.duration)
        stats = sut.server.stats()
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
            cpu = sut.machine.cpu
            loss = (
                self.workload.duration
                * cpu.base_capacity
                * (1.0 - cpu.capacity_factor)
            )
            if loss > 0.0:
                self.profiler.add("sched_overhead", loss)
        return RunMetrics.from_hub(
            metrics,
            clients=self.workload.clients,
            cpu_utilization=min(1.0, busy / capacity),
            server_stats=stats,
        )

    # -- convenience ---------------------------------------------------------
    def describe(self) -> str:
        """One-line human-readable summary of the configuration."""
        return (
            f"{self.server.label} | {self.machine.cpus} cpu | "
            f"{self.network.name} | {self.workload.clients} clients"
        )
