"""Cluster-aware WAN clients: routed sessions, cache hits, adversaries.

:class:`ClusterClient` runs the session loop of the httperf-semantics
:class:`~repro.workload.httperf.EmulatedClient` and adds only the
front-end hops, through the loop's hooks: every new connection first
asks the :class:`~repro.cluster.balancer.LoadBalancer` for a replica
(consuming a routing key from a dedicated ``route`` RNG stream, so
routing never perturbs workload sampling) and holds a lease on it until
it ends, and when a cache tier is mounted, requests whose file is
resident are served at the cache box without touching any replica.

:class:`FanoutMetrics` records every reply, error and connection in the
aggregate hub *and* the hub of its current ``tier``, and, with telemetry
mounted, in the aggregate and per-tier time series.  One instance is
shared by every client, so ``tier`` is the replica whichever client
routed last: the aggregate and the cache tier are right, but a reply
may be credited to another replica than the one that served it.

:class:`SlowlorisClient` is the hostile class: connect, then hold the
connection silently (never sending a request) until the server reaps it,
and reconnect.  Against the paper's httpd-style servers this pins worker
threads; the PR 3 admission policies are the defence being measured.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..metrics.collectors import CLIENT_TIMEOUT, MetricsHub
from ..net.link import DuplexLink
from ..net.tcp import ConnectTimeout, Connection
from ..sim.core import Simulator
from ..sim.rng import RandomStreams, StreamHandle
from ..workload.httperf import EmulatedClient, HttperfConfig
from ..workload.surge import SurgeWorkload
from .balancer import LoadBalancer
from .cache import LruCache
from .spec import ClientClassSpec, ClusterSpec, FlashCrowdSpec

__all__ = [
    "TierMetrics",
    "FanoutMetrics",
    "ClusterClient",
    "SlowlorisClient",
    "ClusterLoadGenerator",
    "apportion",
    "flash_offsets",
]

#: First TCP segment of a response (for the cache tier's TTFB model).
_FIRST_SEGMENT_BYTES = 1460


class TierMetrics:
    """One serving tier's metrics: its name and its hub."""

    __slots__ = ("name", "hub")

    def __init__(self, name: str, hub: MetricsHub) -> None:
        self.name = name
        self.hub = hub


class FanoutMetrics:
    """MetricsHub facade that mirrors records into the serving tier.

    Quacks like a :class:`~repro.metrics.collectors.MetricsHub` for the
    recording methods the client calls.  A client sets ``tier`` when it
    routes a connection (the replica it picked) and around each cache
    hit (the cache tier); replies/errors/connections land in the
    aggregate *and* the tier, sessions are an aggregate-only concept.
    Every client of a run shares one instance, so a reply lands in the
    tier of the latest route by any client.
    """

    __slots__ = ("aggregate", "tier", "telemetry")

    def __init__(self, aggregate: MetricsHub) -> None:
        self.aggregate = aggregate
        self.tier: Optional[TierMetrics] = None
        #: Optional :class:`~repro.cluster.telemetry.ClusterTelemetry`:
        #: replies/errors/connections also feed the time-series and SLO
        #: monitors (pure bookkeeping — pay-for-use).
        self.telemetry = None

    def record_reply(
        self, response_time: float, ttfb: float, nbytes: int
    ) -> None:
        """One successful reply, mirrored into the serving tier."""
        self.aggregate.record_reply(response_time, ttfb, nbytes)
        if self.tier is not None:
            self.tier.hub.record_reply(response_time, ttfb, nbytes)
        if self.telemetry is not None:
            self.telemetry.on_reply(
                self.aggregate.sim.now,
                response_time,
                self.tier.name if self.tier is not None else "?",
            )

    def record_error(self, kind: str) -> None:
        """One failed interaction, mirrored into the serving tier."""
        self.aggregate.record_error(kind)
        if self.tier is not None:
            self.tier.hub.record_error(kind)
        if self.telemetry is not None:
            self.telemetry.on_error(
                self.aggregate.sim.now,
                kind,
                self.tier.name if self.tier is not None else None,
            )

    def record_connection(self, connection_time: float) -> None:
        """One established connection, mirrored into the serving tier."""
        self.aggregate.record_connection(connection_time)
        if self.tier is not None:
            self.tier.hub.record_connection(connection_time)
        if self.telemetry is not None:
            self.telemetry.on_connection(
                self.aggregate.sim.now,
                self.tier.name if self.tier is not None else None,
            )

    def record_session(self) -> None:
        """One completed session (an aggregate-only concept)."""
        self.aggregate.record_session()


class ClusterClient(EmulatedClient):
    """An emulated WAN client whose connections go through the balancer.

    It runs the base session loop and overrides its three hooks: the
    connection hook asks the balancer for a replica (the listener is
    chosen per connection), the finish hook returns the connection's
    balancer slot and its lease on the replica (``replica.live_conns``,
    which the rolling-restart driver resets when a replica goes down),
    and cache hits are answered at the cache box.
    """

    def __init__(
        self,
        sim: Simulator,
        index: int,
        duplex: DuplexLink,
        workload: SurgeWorkload,
        metrics: FanoutMetrics,
        rng: StreamHandle,
        balancer: LoadBalancer,
        route_rng: StreamHandle,
        config: Optional[HttperfConfig] = None,
        cache: Optional[LruCache] = None,
        cache_tier: Optional[TierMetrics] = None,
        telemetry=None,
        wan_class: str = "",
    ) -> None:
        super().__init__(
            sim, index, None, duplex, workload, metrics, rng, config
        )
        self.balancer = balancer
        self.route_rng = route_rng
        self.cache = cache
        self.cache_tier = cache_tier
        #: Optional :class:`~repro.cluster.telemetry.ClusterTelemetry`;
        #: its tracer learns each connection's route and cache hits.
        self.telemetry = telemetry
        self.tracer = telemetry.tracer if telemetry is not None else None
        self.wan_class = wan_class
        #: The replica serving the open connection (one at a time).
        self.replica = None

    # ------------------------------------------------------------------
    def _connect(self) -> object:
        """Generator: pick a replica and connect; the connection or None."""
        metrics = self.metrics
        metrics.tier = None
        key = self.balancer.make_key(self.route_rng)
        replica = self.balancer.pick(key)
        if replica is None:
            # Whole cluster unroutable: the front end cannot even open a
            # backend connection — the client sees a connect timeout.
            yield self.sim.timeout(self.config.client_timeout)
            metrics.record_error(CLIENT_TIMEOUT)
            return None
        metrics.tier = replica.metrics
        self.replica = replica
        conn = Connection(self.sim, self.duplex, replica.listener)
        if conn.span is not None:
            conn.span.mark("routed")
            if self.tracer is not None:
                self.tracer.register(conn.span, replica.rid, self.wan_class)
        try:
            conn_time = yield from conn.connect(self.config.client_timeout)
        except ConnectTimeout:
            metrics.record_error(CLIENT_TIMEOUT)
            self._finish_span(conn, "connect_timeout")
            metrics.tier = None
            return None
        metrics.record_connection(conn_time)
        replica.live_conns[conn] = None
        return conn

    def _finish_span(self, conn: Optional[Connection], status: str) -> None:
        """End the span, then return the balancer slot and the lease."""
        super()._finish_span(conn, status)
        replica = self.replica
        self.balancer.release(replica)
        replica.live_conns.pop(conn, None)

    def _serve_locally(self, group: List) -> object:
        """Generator: answer cache hits at the cache box; returns the misses."""
        cache = self.cache
        if cache is None:
            return group
        misses = []
        for request in group:
            cacheable = request.file_id is not None
            hit = cacheable and cache.lookup(request.file_id)
            if cacheable and self.telemetry is not None:
                self.telemetry.on_cache_lookup(self.sim.now, hit)
            if hit:
                yield from self._serve_from_cache(request)
            else:
                misses.append(request)
        return misses

    def _serve_from_cache(self, request) -> object:
        """Generator: answer ``request`` at the cache box (it is a hit)."""
        t0 = self.sim.now
        yield self.duplex.up.transmit(request.wire_bytes)
        t_arrive = self.sim.now
        if self.cache.hit_service_s > 0.0:
            yield self.sim.timeout(self.cache.hit_service_s)
        t_service = self.sim.now
        total = request.total_response_wire_bytes
        first = min(_FIRST_SEGMENT_BYTES, total)
        yield self.duplex.down.transmit(first)
        ttfb = self.sim.now - t0
        if total > first:
            yield self.duplex.down.transmit(total - first)
        saved = self.metrics.tier
        self.metrics.tier = self.cache_tier
        if self.tracer is not None:
            # Same event as record_reply: the trace's timestamps are the
            # identical floats the response-time measurement uses.
            self.tracer.record_cache_hit(
                self.wan_class, t0, t_arrive, t_service, self.sim.now
            )
        self.metrics.record_reply(self.sim.now - t0, ttfb, total)
        self.metrics.tier = saved

    def _collect_replies(self, conn: Connection, pendings: List) -> object:
        """Generator: base collection, plus cache fill on success."""
        failed = yield from super()._collect_replies(conn, pendings)
        if not failed and self.cache is not None:
            for pending in pendings:
                request = pending.request
                if request.file_id is not None:
                    self.cache.insert(
                        request.file_id, request.total_response_wire_bytes
                    )
        return failed


class SlowlorisClient:
    """Adversary: connect, hold silently, reconnect when reaped.

    Never sends a byte after the handshake, so thread-per-connection
    servers burn a worker on it until the idle reaper fires; event-driven
    servers only burn a connection slot.  Counters (not MetricsHub: the
    attacker's 'latency' is meaningless) feed the aggregate stats.
    """

    def __init__(
        self,
        sim: Simulator,
        index: int,
        balancer: LoadBalancer,
        duplex: DuplexLink,
        route_rng: StreamHandle,
        config: Optional[HttperfConfig] = None,
        hold_s: float = 120.0,
        poll_s: float = 1.0,
        reconnect_delay: float = 0.5,
    ) -> None:
        self.sim = sim
        self.index = index
        self.balancer = balancer
        self.duplex = duplex
        self.route_rng = route_rng
        self.config = config or HttperfConfig()
        self.hold_s = hold_s
        self.poll_s = poll_s
        self.reconnect_delay = reconnect_delay
        self.connects = 0
        self.connect_failures = 0
        self.reaped = 0

    def run(self, start_delay: float = 0.0):
        """Generator: the eternal connect-and-hold loop."""
        if start_delay > 0.0:
            yield self.sim.timeout(start_delay)
        while True:
            key = self.balancer.make_key(self.route_rng)
            replica = self.balancer.pick(key)
            if replica is None:
                yield self.sim.timeout(self.reconnect_delay)
                continue
            conn = Connection(self.sim, self.duplex, replica.listener)
            if conn.span is not None:
                conn.span.mark("routed")
            try:
                yield from conn.connect(self.config.client_timeout)
            except ConnectTimeout:
                self.connect_failures += 1
                self._finish(conn, "connect_timeout")
                self.balancer.release(replica)
                yield self.sim.timeout(self.reconnect_delay)
                continue
            self.connects += 1
            replica.live_conns[conn] = None
            held = 0.0
            while held < self.hold_s:
                if conn.server_closed or conn.dead:
                    self.reaped += 1
                    break
                yield self.sim.timeout(self.poll_s)
                held += self.poll_s
            conn.client_close()
            self._finish(conn, "slowloris")
            self.balancer.release(replica)
            replica.live_conns.pop(conn, None)
            yield self.sim.timeout(self.reconnect_delay)

    @staticmethod
    def _finish(conn: Connection, status: str) -> None:
        if conn.span is not None:
            conn.span.recorder.finish(conn.span, status)


def apportion(n: int, classes) -> List[int]:
    """Split ``n`` clients over classes by weight, deterministically.

    Error diffusion in class order: exact integer totals, no RNG, and
    stable assignment of *which* index goes to which class — so client
    ``i`` keeps its class (and therefore its RNG stream's meaning) when
    unrelated spec fields change.
    """
    weights = [c.weight for c in classes]
    total = sum(weights)
    counts = [0] * len(classes)
    credits = [0.0] * len(classes)
    for _ in range(n):
        for k, w in enumerate(weights):
            credits[k] += w / total
        best = max(range(len(classes)), key=lambda k: credits[k])
        credits[best] -= 1.0
        counts[best] += 1
    return counts


def flash_offsets(flash: FlashCrowdSpec) -> List[float]:
    """Start offsets (relative to ``flash.at``) of the surge clients.

    Quantiles of an exponential with mean ``decay``, by the inverse CDF — a
    deterministic arrival profile that steps up at ``at`` and decays
    away, with no RNG consumed.
    """
    n = flash.surge_clients
    return [
        -flash.decay * math.log(1.0 - (j + 1) / (n + 1.0)) for j in range(n)
    ]


class ClusterLoadGenerator:
    """Builds the whole client population: classes, adversaries, surge."""

    def __init__(
        self,
        sim: Simulator,
        cluster: ClusterSpec,
        balancer: LoadBalancer,
        class_links: dict,
        workload: SurgeWorkload,
        metrics: FanoutMetrics,
        n_clients: int,
        streams: RandomStreams,
        config: Optional[HttperfConfig] = None,
        cache: Optional[LruCache] = None,
        cache_tier: Optional[TierMetrics] = None,
        flash: Optional[FlashCrowdSpec] = None,
        telemetry=None,
    ) -> None:
        if n_clients < 1:
            raise ValueError("need at least one client")
        self.sim = sim
        self.cluster = cluster
        self.balancer = balancer
        self.class_links = class_links
        self.workload = workload
        self.metrics = metrics
        self.n_clients = n_clients
        self.streams = streams
        self.config = config or HttperfConfig()
        self.cache = cache
        self.cache_tier = cache_tier
        self.flash = flash
        self.telemetry = telemetry
        self.clients: List[ClusterClient] = []
        self.attackers: List[SlowlorisClient] = []

    # ------------------------------------------------------------------
    def _class_of(self, counts: List[int], position: int) -> ClientClassSpec:
        """The class of the ``position``-th client under ``counts``."""
        for spec, count in zip(self.cluster.classes, counts):
            if position < count:
                return spec
            position -= count
        return self.cluster.classes[-1]  # pragma: no cover

    def _spawn_legit(
        self, i: int, spec: ClientClassSpec, offset: float,
        sessions: Optional[int],
    ) -> ClusterClient:
        client = ClusterClient(
            self.sim,
            i,
            self.class_links[spec.name],
            self.workload,
            self.metrics,
            self.streams.spawn("cluster-client", i),
            self.balancer,
            self.streams.spawn("route", i),
            self.config,
            cache=self.cache,
            cache_tier=self.cache_tier,
            telemetry=self.telemetry,
            wan_class=spec.name,
        )
        self.clients.append(client)
        self.sim.process(
            client.run(start_delay=offset, sessions=sessions),
            name=f"client-{i}",
        )
        return client

    def _spawn_attacker(
        self, i: int, spec: ClientClassSpec, offset: float
    ) -> SlowlorisClient:
        attacker = SlowlorisClient(
            self.sim,
            i,
            self.balancer,
            self.class_links[spec.name],
            self.streams.spawn("route", i),
            self.config,
        )
        self.attackers.append(attacker)
        self.sim.process(
            attacker.run(start_delay=offset), name=f"attacker-{i}"
        )
        return attacker

    def start(self, ramp: float = 2.0) -> None:
        """Spawn the steady population, plus the surge if configured."""
        counts = apportion(self.n_clients, self.cluster.classes)
        for i in range(self.n_clients):
            spec = self._class_of(counts, i)
            offset = ramp * i / self.n_clients
            if spec.adversary == "slowloris":
                self._spawn_attacker(i, spec, offset)
            else:
                self._spawn_legit(i, spec, offset, None)
        if self.flash is not None:
            legit = [c for c in self.cluster.classes if not c.adversary]
            surge_counts = apportion(self.flash.surge_clients, legit)
            offsets = flash_offsets(self.flash)
            for j in range(self.flash.surge_clients):
                spec = next(
                    s
                    for s, c in zip(legit, _running(surge_counts))
                    if j < c
                )
                self._spawn_legit(
                    self.n_clients + j,
                    spec,
                    self.flash.at + offsets[j],
                    self.flash.sessions_per_client,
                )

    def stats(self) -> dict:
        """Attack-side counters for the aggregate server_stats."""
        if not self.attackers:
            return {}
        return {
            "attack.clients": len(self.attackers),
            "attack.connects": sum(a.connects for a in self.attackers),
            "attack.connect_failures": sum(
                a.connect_failures for a in self.attackers
            ),
            "attack.reaped": sum(a.reaped for a in self.attackers),
        }


def _running(counts: List[int]) -> List[int]:
    """Cumulative sums: [3, 2, 1] -> [3, 5, 6]."""
    out = []
    acc = 0
    for c in counts:
        acc += c
        out.append(acc)
    return out
