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
from typing import List, Optional, Set

from ..http.parser import ParseError, RequestParser, render_response_head
from .docroot import DocRoot

__all__ = ["ThreadPoolHttpServer"]


class ThreadPoolHttpServer:
    """Blocking-I/O server with one thread bound per active connection."""

    def __init__(
        self,
        docroot: DocRoot,
        pool_size: int = 8,
        idle_timeout: float = 15.0,
        host: str = "127.0.0.1",
        port: int = 0,
        backlog: int = 128,
    ):
        if pool_size < 1:
            raise ValueError("pool size must be >= 1")
        self.docroot = docroot
        self.pool_size = pool_size
        self.idle_timeout = idle_timeout
        self.host = host
        self.port = port
        self.backlog = backlog
        self.requests_served = 0
        self.connections_accepted = 0
        self.idle_reaps = 0
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
                self._conns.add(conn)
            try:
                self._serve_connection(conn)
            finally:
                with self._lock:
                    self._conns.discard(conn)
                try:
                    conn.close()
                except OSError:
                    pass

    def _serve_connection(self, conn: socket.socket) -> None:
        """One thread bound to one connection, blocking I/O throughout."""
        parser = RequestParser()
        conn.settimeout(self.idle_timeout)
        while not self._stopping.is_set():
            try:
                data = conn.recv(64 * 1024)
            except socket.timeout:
                # Idle reap: disconnect to free this thread (the client
                # will observe a reset if it sends later).
                with self._lock:
                    self.idle_reaps += 1
                return
            except OSError:
                return
            if not data:
                return
            try:
                requests = parser.feed(data)
            except ParseError:
                try:
                    conn.sendall(render_response_head(400, "Bad Request", 0, False))
                except OSError:
                    pass  # the client already reset the connection
                return
            for request in requests:
                if not self._respond(conn, request):
                    return

    def _respond(self, conn: socket.socket, request) -> bool:
        body = self.docroot.lookup(request.target)
        try:
            if body is None:
                conn.sendall(
                    render_response_head(404, "Not Found", 0, request.keep_alive)
                )
            else:
                conn.sendall(
                    render_response_head(
                        200, "OK", len(body), request.keep_alive
                    )
                )
                conn.sendall(body)  # blocking write of the full response
        except OSError:
            return False
        with self._lock:
            self.requests_served += 1
        return request.keep_alive
