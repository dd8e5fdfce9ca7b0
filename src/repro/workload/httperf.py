"""httperf-style workload generation.

Reimplements the measurement semantics of httperf (Mosberger & Jin, 1998)
as used in the paper:

* a fixed population of emulated clients, each looping SURGE sessions over
  persistent connections (one fresh connection per session, kept across
  request groups);
* a client socket timeout (10 s in the paper) applied to connecting,
  waiting for a reply and receiving it — expiry counts one
  *client-timeout* error and kills the session;
* sending on a connection the server idle-reaped counts one
  *connection-reset* error; the client transparently reconnects and
  retries the group (httperf's connection re-establishment);
* only successful replies contribute to response-time statistics.

Client start times are staggered over a ramp so the measurement window
sees steady state rather than a synchronized thundering herd.

:class:`EmulatedClient` holds the one session loop.  The cluster's
:class:`~repro.cluster.clients.ClusterClient` and the fluid population's
boundary sessions (:mod:`repro.workload.fluid`) run it unchanged, through
the hooks the class docstring lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..metrics.collectors import CLIENT_TIMEOUT, CONNECTION_RESET, MetricsHub
from ..net.link import DuplexLink
from ..net.tcp import (
    ConnectTimeout,
    Connection,
    ListenSocket,
    ResetByServer,
    ResponseTimeout,
)
from ..sim.core import Simulator
from ..sim.rng import RandomStreams, StreamHandle
from .surge import SessionPlan, SurgeWorkload

__all__ = ["HttperfConfig", "EmulatedClient", "LoadGenerator"]


@dataclass(frozen=True)
class HttperfConfig:
    """Client-side measurement parameters (paper values as defaults)."""

    #: httperf --timeout: socket timeout for connect/wait/receive phases.
    client_timeout: float = 10.0
    #: Safety cap on how long receiving one reply body may take in total.
    stall_timeout: float = 60.0
    #: Reconnect-and-retry attempts when the server reset the connection.
    max_reset_retries: int = 2


class EmulatedClient:
    """One emulated client looping sessions.

    The session loop calls three methods a subclass may override:
    :meth:`_connect` opens a connection, :meth:`_finish_span` runs on
    every path that ends one, and :meth:`_serve_locally` answers the
    requests that need no server.
    """

    def __init__(
        self,
        sim: Simulator,
        index: int,
        listener: ListenSocket,
        duplex: DuplexLink,
        workload: SurgeWorkload,
        metrics: MetricsHub,
        rng: StreamHandle,
        config: Optional[HttperfConfig] = None,
    ) -> None:
        self.sim = sim
        self.index = index
        self.listener = listener
        self.duplex = duplex
        self.workload = workload
        self.metrics = metrics
        self.rng = rng
        self.config = config or HttperfConfig()
        self.sessions_attempted = 0

    # ------------------------------------------------------------------
    def run(self, start_delay: float = 0.0, sessions: Optional[int] = None):
        """Generator: the client's session loop.

        Endless unless ``sessions`` caps how many sessions it starts.
        """
        if start_delay > 0.0:
            yield self.sim.timeout(start_delay)
        while sessions is None or self.sessions_attempted < sessions:
            with self.rng as rng:
                plan = self.workload.sample_session(rng)
            self.sessions_attempted += 1
            completed = yield from self._run_session(plan)
            if completed:
                self.metrics.record_session()
            yield self.sim.timeout(plan.inter_session_gap)

    # ------------------------------------------------------------------
    def _finish_span(self, conn: Optional[Connection], status: str) -> None:
        """Terminate the connection's observability span (if any).

        Every path that ends a connection calls it exactly once.
        """
        if conn is not None and conn.span is not None:
            conn.span.recorder.finish(conn.span, status)

    def _connect(self) -> object:
        """Generator: establish a fresh connection or return None."""
        conn = Connection(self.sim, self.duplex, self.listener)
        try:
            conn_time = yield from conn.connect(self.config.client_timeout)
        except ConnectTimeout:
            self.metrics.record_error(CLIENT_TIMEOUT)
            self._finish_span(conn, "connect_timeout")
            return None
        self.metrics.record_connection(conn_time)
        return conn

    def _send_group(self, conn: Connection, group: List) -> object:
        """Generator: pipeline one request group.

        Returns ``(conn, pendings)`` — possibly a *new* connection if the
        server had reset the old one — or ``(conn, None)`` on failure.
        """
        for _attempt in range(self.config.max_reset_retries + 1):
            pendings = []
            try:
                for request in group:
                    pending = yield from conn.send_request(request)
                    pendings.append(pending)
                return conn, pendings
            except ResetByServer:
                self.metrics.record_error(CONNECTION_RESET)
                self._finish_span(conn, "reset")
                conn = yield from self._connect()
                if conn is None:
                    return None, None
        return conn, None

    def _serve_locally(self, group: List) -> object:
        """Generator: answer the requests that need no server; returns
        the rest.  A plain client answers none of them."""
        return group
        yield  # pragma: no cover - makes this a generator

    def _run_session(self, plan: SessionPlan) -> object:
        """Generator: execute one session; returns True if it completed.

        The connection opens at the first group that still has a request
        for the server, and carries the rest of the session.
        """
        groups = plan.groups
        last = len(groups) - 1
        conn = None
        ok = True
        # An index loop: an iterator would stay alive in every session's
        # frame while it waits on its SYN.
        i = 0
        while i <= last:
            requests = yield from self._serve_locally(groups[i])
            if requests:
                if conn is None:
                    conn = yield from self._connect()
                    if conn is None:
                        return False
                conn, pendings = yield from self._send_group(conn, requests)
                if pendings is None:
                    ok = False
                    break
                failed = yield from self._collect_replies(conn, pendings)
                if failed:
                    return False
            if i < last:
                yield self.sim.timeout(plan.think_times[i])
            i += 1
        if conn is not None:
            conn.client_close()
            self._finish_span(conn, "closed")
        return ok

    def _collect_replies(self, conn: Connection, pendings: List) -> object:
        """Generator: await every reply; returns True if the session died."""
        for pending in pendings:
            try:
                done_at = yield from conn.await_response(
                    pending,
                    ttfb_timeout=self.config.client_timeout,
                    stall_timeout=self.config.stall_timeout,
                )
            except ResponseTimeout:
                self.metrics.record_error(CLIENT_TIMEOUT)
                conn.client_close()
                self._finish_span(conn, "client_timeout")
                return True
            response_time = done_at - pending.sent_at
            ttfb = pending.first_byte.value - pending.sent_at
            self.metrics.record_reply(
                response_time, ttfb, pending.bytes_received
            )
        return False


class LoadGenerator:
    """Spawns and staggers the whole emulated-client population."""

    def __init__(
        self,
        sim: Simulator,
        listener: ListenSocket,
        network,
        workload: SurgeWorkload,
        metrics: MetricsHub,
        n_clients: int,
        streams: RandomStreams,
        config: Optional[HttperfConfig] = None,
    ) -> None:
        if n_clients < 1:
            raise ValueError("need at least one client")
        self.sim = sim
        self.listener = listener
        self.network = network
        self.workload = workload
        self.metrics = metrics
        self.n_clients = n_clients
        self.streams = streams
        self.config = config or HttperfConfig()
        self.clients: List[EmulatedClient] = []

    def start(self, ramp: float = 2.0) -> None:
        """Create all clients, staggering their first session over ``ramp``."""
        for i in range(self.n_clients):
            rng = self.streams.spawn("client", i)
            client = EmulatedClient(
                self.sim,
                i,
                self.listener,
                self.network.link_for_client(i),
                self.workload,
                self.metrics,
                rng,
                self.config,
            )
            self.clients.append(client)
            offset = ramp * i / self.n_clients
            self.sim.process(client.run(start_delay=offset), name=f"client-{i}")
