"""Cluster telemetry: causal tracing, time series, and SLOs in one mount.

``ClusterSpec(observe=True)`` mounts a :class:`ClusterTelemetry` on the
experiment, bundling the pieces the cluster tier was missing between
the client and the per-replica stats:

* a :class:`~repro.obs.trace.ClusterTracer` fed by a
  :class:`~repro.obs.trace.TracingSpanRecorder` (every routed
  connection's span becomes per-request traces with exact per-tier
  attribution);
* one aggregate :class:`~repro.obs.series.SeriesRecorder` plus lazy
  per-tier recorders (replica ids and ``"cache"``), merged exactly;
* :class:`~repro.obs.slo.SloMonitor` instances for the spec's declared
  SLOs, evaluated at reply/error events in sim time;
* a :class:`~repro.obs.profiler.PhaseProfiler` ledger for the
  front-tier ``balance`` / ``cache_lookup`` phases, which the
  uncapacitated front end never charges to a Machine;
* balancer state-change history (:meth:`state_bands` turns it into
  figure-ready per-replica bands).

Everything here is pure bookkeeping driven by events the cluster
already generates: no simulator events are scheduled, no RNG stream is
drawn, no modelled CPU is charged.  That is the pay-for-use contract —
an observed run must leave RunMetrics byte-identical to an unobserved
one (pinned by ``tests/test_cluster_observe_equivalence.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..obs.profiler import PhaseProfiler
from ..obs.series import SeriesRecorder
from ..obs.slo import SloMonitor, SloSpec
from ..obs.trace import ClusterTracer, TracingSpanRecorder
from ..osmodel.costs import CostModel

__all__ = ["ClusterTelemetry", "ListenerProbe"]


class ListenerProbe:
    """Per-replica listener hook: shed rate and backlog depth series."""

    __slots__ = ("telemetry", "rid")

    def __init__(self, telemetry: "ClusterTelemetry", rid: str) -> None:
        self.telemetry = telemetry
        self.rid = rid

    def on_drop(self, t: float) -> None:
        """A SYN was dropped by this replica's full backlog at ``t``."""
        self.telemetry.on_syn_drop(t, self.rid)

    def on_enqueue(self, t: float, depth: int) -> None:
        """A connection entered this replica's backlog at depth ``depth``."""
        self.telemetry.on_backlog(t, self.rid, depth)


class ClusterTelemetry:
    """The cluster's observability bundle (see module docstring)."""

    def __init__(self, sim, seed: int, slos: Tuple[SloSpec, ...] = ()) -> None:
        self.sim = sim
        self.tracer = ClusterTracer(seed)
        self.recorder = TracingSpanRecorder(
            clock=lambda: sim.now, tracer=self.tracer
        )
        self.profiler = PhaseProfiler()
        self.costs = CostModel()
        self.series = SeriesRecorder()
        self.tier_series: Dict[str, SeriesRecorder] = {}
        self.monitors: Tuple[SloMonitor, ...] = tuple(
            SloMonitor(spec) for spec in slos
        )
        #: Chronological (time, rid, state) balancer transitions.
        self.state_changes: List[Tuple[float, str, str]] = []

    def tier(self, name: str) -> SeriesRecorder:
        """The (lazily created) series recorder for one tier."""
        rec = self.tier_series.get(name)
        if rec is None:
            rec = self.tier_series[name] = SeriesRecorder()
        return rec

    def probe(self, rid: str) -> ListenerProbe:
        """A listener hook bound to replica ``rid``."""
        return ListenerProbe(self, rid)

    # -- FanoutMetrics hooks ---------------------------------------------
    def on_reply(self, t: float, response_time: float, tier_name: str) -> None:
        """A request completed: feed series (aggregate + tier) and SLOs."""
        self.series.inc("replies", t)
        self.series.observe("response_time_s", t, response_time)
        tier = self.tier(tier_name)
        tier.inc("replies", t)
        tier.observe("response_time_s", t, response_time)
        for monitor in self.monitors:
            monitor.record_reply(t, response_time)

    def on_error(self, t: float, kind: str, tier_name: Optional[str]) -> None:
        """A request failed (reset/timeout/...): series + SLO bad event."""
        self.series.inc("errors", t)
        self.series.inc(f"errors.{kind}", t)
        if tier_name is not None:
            self.tier(tier_name).inc("errors", t)
        for monitor in self.monitors:
            monitor.record_error(t, kind)

    def on_connection(self, t: float, tier_name: Optional[str]) -> None:
        """A connection was established against ``tier_name``."""
        self.series.inc("connections", t)
        if tier_name is not None:
            self.tier(tier_name).inc("connections", t)

    # -- balancer hooks --------------------------------------------------
    def on_pick(self, t: float, rid: Optional[str]) -> None:
        """The balancer routed (or failed to route) one connection."""
        self.profiler.add("balance", self.costs.balance)
        self.series.inc("picks", t)
        if rid is None:
            self.series.inc("no_replica", t)
        else:
            self.tier(rid).inc("picks", t)

    def on_state(self, t: float, rid: str, state: str) -> None:
        """The balancer moved ``rid`` to ``state`` (up/draining/...)."""
        self.state_changes.append((t, rid, state))

    # -- cache hook ------------------------------------------------------
    def on_cache_lookup(self, t: float, hit: bool) -> None:
        """The front cache answered (hit) or passed through (miss)."""
        self.profiler.add("cache_lookup", self.costs.cache_lookup)
        self.series.inc("cache_lookups", t)
        if hit:
            self.series.inc("cache_hits", t)

    # -- listener hooks --------------------------------------------------
    def on_syn_drop(self, t: float, rid: str) -> None:
        """Replica ``rid`` dropped a SYN off its full backlog."""
        self.series.inc("syns_dropped", t)
        self.tier(rid).inc("syns_dropped", t)

    def on_backlog(self, t: float, rid: str, depth: int) -> None:
        """Replica ``rid``'s backlog depth observed at enqueue time."""
        self.tier(rid).observe("backlog_depth", t, float(depth))

    # -- reading ---------------------------------------------------------
    def state_bands(
        self, rid: str, t0: float, t1: float
    ) -> List[Tuple[str, float, float]]:
        """(state, start, end) bands for ``rid`` over ``[t0, t1]``.

        Replicas start UP; ``state_changes`` is chronological because it
        is appended at event time.
        """
        bands: List[Tuple[str, float, float]] = []
        state = "up"
        start = t0
        for t, r, s in self.state_changes:
            if r != rid:
                continue
            if t >= t1:
                break
            if t <= t0:
                state = s
                continue
            bands.append((state, start, t))
            state = s
            start = t
        bands.append((state, start, t1))
        return bands

    def merged_tiers(self) -> SeriesRecorder:
        """Exact merge of every per-tier recorder (the merge invariant:
        its ``replies`` counters and ``response_time_s`` quantile series
        equal the aggregate recorder's bit for bit)."""
        merged = SeriesRecorder()
        for rec in self.tier_series.values():
            merged.merge(rec)
        return merged

    def stats(self) -> Dict[str, float]:
        """Flat counters folded into the cluster-aggregate stats."""
        out = dict(self.tracer.stats())
        out["obs.balance_cpu_s"] = round(
            self.profiler.cpu_seconds.get("balance", 0.0), 9
        )
        out["obs.cache_lookup_cpu_s"] = round(
            self.profiler.cpu_seconds.get("cache_lookup", 0.0), 9
        )
        for monitor in self.monitors:
            out.update(monitor.stats())
        return out
