"""A real thread-pool HTTP server on blocking sockets (the httpd analogue).

A fixed pool of worker threads shares a listening socket; each worker
accepts a connection, binds to it, and serves it with blocking reads and
writes until the client closes or an idle timeout expires — the Apache 2
worker-MPM structure the paper benchmarks, including the idle disconnect
that produces connection resets.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import List, Optional, Set

from ..http.parser import ParseError, RequestParser, render_response_head
from ..obs import Registry, SpanRecorder
from ..overload import OverloadControl, Signals
from .docroot import DocRoot
from .eventserver import METRICS_PATH

__all__ = ["ThreadPoolHttpServer"]


class ThreadPoolHttpServer:
    """Blocking-I/O server with one thread bound per active connection.

    A mounted :class:`~repro.overload.OverloadControl` — the *same*
    policy objects the simulated servers mount — drives real sockets:
    admission is consulted as each connection is accepted (shed = close
    before reading a byte), and an adaptive timeout replaces the fixed
    idle timeout, tightening as pool occupancy rises.
    """

    def __init__(
        self,
        docroot: DocRoot,
        pool_size: int = 8,
        idle_timeout: float = 15.0,
        host: str = "127.0.0.1",
        port: int = 0,
        backlog: int = 128,
        overload: Optional[OverloadControl] = None,
        registry: Optional[Registry] = None,
        recorder: Optional[SpanRecorder] = None,
    ):
        if pool_size < 1:
            raise ValueError("pool size must be >= 1")
        self.docroot = docroot
        self.pool_size = pool_size
        self.idle_timeout = idle_timeout
        self.host = host
        self.port = port
        self.backlog = backlog
        self.overload = overload
        self.requests_served = 0
        self.connections_accepted = 0
        self.requests_shed = 0
        self.active_connections = 0
        self.idle_reaps = 0
        #: Metrics registry backing the /-/metrics endpoint; shares the
        #: histogram/counter implementation with the simulation.
        self.registry = registry if registry is not None else Registry()
        #: Optional span recorder (wall-clock spans per connection).
        self.recorder = recorder
        self._sock: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        #: Connections being served, so stop() can wake their workers.
        self._conns: Set[socket.socket] = set()
        self._stopping = threading.Event()
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Bind, listen, and launch the worker threads."""
        if self._sock is not None:
            raise RuntimeError("server already started")
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen(self.backlog)
        sock.settimeout(0.2)  # lets workers notice shutdown
        self.port = sock.getsockname()[1]
        self._sock = sock
        for i in range(self.pool_size):
            t = threading.Thread(
                target=self._worker, name=f"httpd-worker-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)

    def stop(self) -> None:
        """Stop accepting, close open connections, join workers.

        Shutting a connection down wakes a worker blocked in ``recv`` on
        an idle keep-alive connection, which would otherwise hold its
        thread until the idle timeout.
        """
        self._stopping.set()
        with self._lock:
            for conn in self._conns:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the peer already closed it
        for t in self._threads:
            t.join(timeout=5.0)
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._threads = []

    # -- worker loop -----------------------------------------------------------
    def _worker(self) -> None:
        assert self._sock is not None
        while not self._stopping.is_set():
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            # asyncio enables TCP_NODELAY by default; match it so the two
            # live servers differ only architecturally, not by Nagle.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self.connections_accepted += 1
                self.registry.counter("connections_accepted").inc()
                admitted = self._admit_locked()
                if admitted:
                    self._conns.add(conn)
            if not admitted:
                try:
                    conn.close()  # shed: refuse before reading a byte
                except OSError:
                    pass
                continue
            self.registry.gauge("open_connections").add(1)
            try:
                self._serve_connection(conn)
            finally:
                with self._lock:
                    self.active_connections -= 1
                    self._conns.discard(conn)
                self.registry.gauge("open_connections").add(-1)
                try:
                    conn.close()
                except OSError:
                    pass

    def _admit_locked(self) -> bool:
        """Consult the admission policy; caller holds ``self._lock``."""
        if self.overload is not None:
            signals = Signals(
                queue_depth=self.active_connections,
                queue_capacity=self.pool_size,
                pressure=min(1.0, self.active_connections / self.pool_size),
            )
            if not self.overload.admission.on_arrival(
                time.monotonic(), signals
            ):
                self.requests_shed += 1
                return False
        self.active_connections += 1
        return True

    def _idle_timeout_now(self) -> float:
        """Idle timeout to apply (adaptive when a controller is mounted)."""
        if self.overload is None:
            return self.idle_timeout
        pressure = min(1.0, self.active_connections / self.pool_size)
        return self.overload.idle_timeout(self.idle_timeout, pressure)

    def _serve_connection(self, conn: socket.socket) -> None:
        """One thread bound to one connection, blocking I/O throughout."""
        span = self.recorder.open() if self.recorder is not None else None
        if span is not None:
            span.mark("accept")
        status = "closed"
        try:
            parser = RequestParser()
            while not self._stopping.is_set():
                conn.settimeout(self._idle_timeout_now())
                try:
                    data = conn.recv(64 * 1024)
                except socket.timeout:
                    # Idle reap: disconnect to free this thread (the client
                    # will observe a reset if it sends later).
                    with self._lock:
                        self.idle_reaps += 1
                    status = "idle_reap"
                    return
                except OSError:
                    status = "reset"
                    return
                if not data:
                    return
                try:
                    requests = parser.feed(data)
                except ParseError:
                    conn.sendall(
                        render_response_head(400, "Bad Request", 0, False)
                    )
                    return
                for request in requests:
                    if not self._respond(conn, request, span):
                        return
        finally:
            if self.recorder is not None:
                self.recorder.finish(span, status)

    def _respond(self, conn: socket.socket, request, span=None) -> bool:
        if request.target == METRICS_PATH:
            body = self.registry.prometheus_text().encode()
            try:
                conn.sendall(
                    render_response_head(
                        200, "OK", len(body), request.keep_alive
                    )
                )
                conn.sendall(body)
            except OSError:
                return False
            return request.keep_alive
        t0 = time.monotonic()
        if span is not None:
            span.mark("svc_start")
        body = self.docroot.lookup(request.target)
        if span is not None:
            span.mark("svc_end")
            span.mark("tx_start")
        try:
            if body is None:
                conn.sendall(
                    render_response_head(404, "Not Found", 0, request.keep_alive)
                )
                self.registry.counter("requests_not_found").inc()
            else:
                conn.sendall(
                    render_response_head(
                        200, "OK", len(body), request.keep_alive
                    )
                )
                conn.sendall(body)  # blocking write of the full response
        except OSError:
            return False
        if span is not None:
            span.mark("reply_done")
        with self._lock:
            self.requests_served += 1
        self.registry.counter("requests_served").inc()
        self.registry.histogram("request_latency").observe(
            time.monotonic() - t0
        )
        return request.keep_alive
