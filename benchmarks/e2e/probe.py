"""Outside-in instrumentation of one simulation run.

Nothing under ``src/`` is edited.  Inside the child process that runs one
repetition, :class:`Probe` replaces a few class attributes at runtime:

* constructors of the objects whose public counters the benchmark reads
  (simulator, CPU, links, listen sockets, servers, fluid generator, cluster
  tracer, load balancer) are wrapped to keep a reference to each instance,
  so counts are read once after the run and cost nothing per event;
* ``FilePopulation.shared`` / ``SurgeWorkload.shared`` are timed, which
  splits set-up time into its parts;
* ``Simulator.run`` is timed, and in a traced repetition it switches the
  :class:`LayerSampler` on for exactly the duration of the run.

Per-layer time cannot come from call wrappers: the kernel resumes
``servers``/``workload`` generator bodies without a call boundary a wrapper
could time.  The sampler instead reads the interrupted Python stack on each
``SIGPROF`` and charges the sample to the innermost frame whose file lies
under ``src/repro/<layer>/``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import signal
import time
from collections import Counter, defaultdict
from typing import Dict, Optional

__all__ = ["LAYERS", "LayerSampler", "Probe", "SetupDone", "row_digest"]

#: The ``repro`` packages the benchmark attributes time to.  Frames in
#: any other file (other packages, the interpreter, this harness) are
#: charged to ``other`` unless a layer frame sits below them.
LAYERS = (
    "sim", "osmodel", "net", "http", "servers", "workload",
    "metrics", "obs", "cluster", "overload", "core",
)


class LayerSampler:
    """Statistical per-layer self time from ``ITIMER_PROF`` samples."""

    def __init__(self, src_root: str, interval: float = 0.001) -> None:
        self.package = os.path.join(os.path.realpath(src_root), "repro") + os.sep
        self.interval = interval
        self.samples: Counter = Counter()
        self._layer_of: Dict[str, Optional[str]] = {}
        self._previous = None

    def layer_of(self, filename: str) -> Optional[str]:
        """The layer a source file belongs to, or ``None``."""
        try:
            return self._layer_of[filename]
        except KeyError:
            pass
        path = os.path.realpath(filename)
        layer = None
        if path.startswith(self.package):
            head, sep, _ = path[len(self.package):].partition(os.sep)
            if sep and head in LAYERS:
                layer = head
        self._layer_of[filename] = layer
        return layer

    def _on_sample(self, _signum, frame) -> None:
        layer_of = self.layer_of
        while frame is not None:
            layer = layer_of(frame.f_code.co_filename)
            if layer is not None:
                self.samples[layer] += 1
                return
            frame = frame.f_back
        self.samples["other"] += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)


def _canonical(metrics) -> dict:
    """A RunMetrics as plain data, minus kernel bookkeeping.

    ``tombstones_compacted`` counts heap compactions, which depend on the
    kernel configuration rather than the model; it is reported as a count
    instead of being pinned.
    """
    body = dataclasses.asdict(metrics)
    body["server_stats"] = {
        key: value
        for key, value in body["server_stats"].items()
        if key != "tombstones_compacted"
    }
    return body


def _plain(value):
    # numpy scalars that slipped into server_stats.
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"cannot pin a {type(value).__name__}")


def row_digest(row, replicas: Optional[dict] = None) -> str:
    """sha256 of the canonical JSON of a full row (and replica rows)."""
    body = {"row": _canonical(row)}
    if replicas:
        body["replicas"] = {rid: _canonical(m) for rid, m in sorted(replicas.items())}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"), default=_plain)
    return hashlib.sha256(blob.encode()).hexdigest()


class SetupDone(Exception):
    """Raised on entering ``Simulator.run`` by a probe that times set-up only."""


class Probe:
    """Captures instances and times set-up and the run; see module doc."""

    def __init__(self, sampler: Optional[LayerSampler] = None,
                 stop_at_run: bool = False) -> None:
        self.sampler = sampler
        self.stop_at_run = stop_at_run
        self.instances: Dict[str, list] = defaultdict(list)
        self.call_s: Dict[str, float] = defaultdict(float)
        self.run_entered_at: Optional[float] = None
        self.wall_s = 0.0

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        from repro.cluster.balancer import LoadBalancer
        from repro.http.files import FilePopulation
        from repro.net.link import Link
        from repro.net.tcp import ListenSocket
        from repro.obs.trace import ClusterTracer
        from repro.osmodel.cpu import CPU
        from repro.servers.base import Server
        from repro.sim.turbo import simulator_class
        from repro.workload.fluid import FluidLoadGenerator
        from repro.workload.surge import SurgeWorkload

        sim_cls = simulator_class(None)
        for key, cls in (
            ("sim", sim_cls), ("cpu", CPU), ("link", Link),
            ("listener", ListenSocket), ("server", Server),
            ("fluid", FluidLoadGenerator), ("tracer", ClusterTracer),
            ("balancer", LoadBalancer),
        ):
            self._capture(key, cls)
        self._time_calls(FilePopulation, "shared", "population")
        self._time_calls(SurgeWorkload, "shared", "surge")
        self._time_run(sim_cls)

    def _capture(self, key: str, cls) -> None:
        original = cls.__init__
        keep = self.instances[key].append

        def __init__(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            keep(obj)

        cls.__init__ = __init__

    def _time_calls(self, cls, name: str, key: str) -> None:
        original = getattr(cls, name)  # bound classmethod
        totals = self.call_s

        def timed(*args, **kwargs):
            t0 = time.monotonic()
            try:
                return original(*args, **kwargs)
            finally:
                totals[key] += time.monotonic() - t0

        setattr(cls, name, staticmethod(timed))

    def _time_run(self, sim_cls) -> None:
        original = sim_cls.run
        probe = self

        def run(sim, *args, **kwargs):
            if probe.run_entered_at is None:
                probe.run_entered_at = time.monotonic()
            if probe.stop_at_run:
                raise SetupDone
            sampler = probe.sampler
            if sampler is not None:
                sampler.start()
            t0 = time.perf_counter()
            try:
                return original(sim, *args, **kwargs)
            finally:
                probe.wall_s += time.perf_counter() - t0
                if sampler is not None:
                    sampler.stop()

        sim_cls.run = run

    # -- readout -------------------------------------------------------------
    def kernel(self) -> dict:
        sim = self.instances["sim"][0]
        return {"backend": sim.backend, "wheel": sim.wheel_enabled}

    def counts(self, row) -> Dict[str, float]:
        """Exact work counts from the captured objects' public counters."""
        from repro.metrics.collectors import CLIENT_TIMEOUT

        got = self.instances
        timers = [sim.timer_stats() for sim in got["sim"]]
        scheduled = sum(t["wheel_scheduled"] for t in timers)
        cancelled = sum(t["wheel_cancelled"] for t in timers)
        syns = sum(s.syns_received for s in got["listener"])
        dropped = sum(s.syns_dropped for s in got["listener"])
        return {
            "sim.events": sum(sim._seq for sim in got["sim"]),
            "sim.wheel_scheduled": scheduled,
            "sim.wheel_cancelled": cancelled,
            "sim.timer_cancel_share": cancelled / scheduled if scheduled else 0.0,
            "sim.wheel_batch_flushes": sum(t["wheel_batch_flushes"] for t in timers),
            "sim.tombstones_compacted": sum(t["tombstones_compacted"] for t in timers),
            "osmodel.cpu_bursts": sum(cpu.bursts for cpu in got["cpu"]),
            "net.link_transmissions": sum(link.transmissions for link in got["link"]),
            "net.syns": syns,
            "net.syn_drop_share": dropped / syns if syns else 0.0,
            "net.accepted": sum(s.accepted for s in got["listener"]),
            "servers.requests_served": sum(s.requests_served for s in got["server"]),
            "servers.threads_peak": sum(s.machine.threads.peak for s in got["server"]),
            "workload.replies": row.replies,
            "workload.client_timeouts": row.errors.get(CLIENT_TIMEOUT, 0),
            "workload.fluid_materialized": sum(
                g.sessions_materialized for g in got["fluid"]
            ),
            "obs.trace_requests": sum(t.recorded for t in got["tracer"]),
            "cluster.lb_picks": sum(b.picks for b in got["balancer"]),
        }
