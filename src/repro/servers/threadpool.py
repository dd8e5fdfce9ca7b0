"""Thread-pool (Apache 2 worker MPM) server model — the paper's httpd2.

Architecture, exactly as the paper describes it:

* a fixed pool of worker threads is spawned up front (``ThreadsPerChild``);
  every live thread costs stack memory and scheduler overhead;
* each worker loops: accept a connection, *bind to it*, and serve requests
  with blocking reads and blocking writes until the client closes or the
  connection idles past the server timeout (``Timeout``/
  ``KeepAliveTimeout``, 15 s in the paper) — at which point the worker
  *disconnects the client* to free itself for new work.  A client that
  resumes after that sees a connection reset;
* when every worker is busy, completed handshakes pile up in the kernel
  backlog; once that fills, SYNs are dropped and clients stall in
  3 s/6 s/12 s retransmission — the paper's exploding connection times.

Dynamic pool management (Apache's ``MinSpareThreads``/``MaxSpareThreads``)
is also modelled: with ``dynamic=True`` the server starts small and a
manager grows/shrinks the pool around the observed idle-thread count, so
pool ramp-up effects can be studied (see the dynamic-pool ablation bench).

Timer routing: this architecture is the kernel timing wheel's heaviest
client — after every request a worker parks in ``server_recv``'s 15 s
idle-reap timed wait (``sim.within``), whose timeout is almost always
cancelled (O(1) wheel unlink) when the next request beats it, and
dynamic-pool workers wait the same way in ``accept(timeout=...)``.  At
4096 threads that is thousands of live reap timeouts that never touch
the event heap; the timed_wait_storm kernel benchmark measures exactly
this pattern.
"""

from __future__ import annotations

from typing import Optional

from ..http.protocol import HttpSemantics
from ..net.tcp import EOF, Connection, ListenSocket
from ..osmodel.costs import CostModel
from ..osmodel.machine import Machine
from ..osmodel.memory import MemoryExhausted
from ..osmodel.threads import ThreadLimitExceeded
from ..sim.core import Simulator
from .base import Server

__all__ = ["ThreadPoolServer"]


class ThreadPoolServer(Server):
    """Apache-httpd-2-style multithreaded blocking-I/O server."""

    name = "httpd"

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        listener: ListenSocket,
        pool_size: int = 4096,
        idle_timeout: float = 15.0,
        semantics: Optional[HttpSemantics] = None,
        costs: Optional[CostModel] = None,
        dynamic: bool = False,
        initial_threads: int = 64,
        min_spare: int = 25,
        max_spare: int = 250,
        manager_interval: float = 1.0,
        overload=None,
    ) -> None:
        super().__init__(sim, machine, listener, semantics, costs, overload)
        if pool_size < 1:
            raise ValueError("pool size must be >= 1")
        if dynamic and not (0 < min_spare <= max_spare):
            raise ValueError("need 0 < min_spare <= max_spare")
        self.pool_size = pool_size
        self.idle_timeout = idle_timeout
        self.dynamic = dynamic
        self.initial_threads = min(initial_threads, pool_size)
        self.min_spare = min_spare
        self.max_spare = max_spare
        self.manager_interval = manager_interval
        self.idle_reaps = 0
        self.keepalive_requests = 0
        self.idle_workers = 0
        self.live_workers = 0
        self.spawn_failures = 0
        self._retire_requests = 0
        self._worker_seq = 0

    def start(self) -> None:
        """Spawn the pool (static: all up front; dynamic: initial batch)."""
        if self.started:
            raise RuntimeError("server already started")
        self.started = True
        if self.dynamic:
            for _ in range(self.initial_threads):
                self._spawn_worker()
            self.sim.process(self._manager(), name=f"{self.name}-manager")
        else:
            # All-at-once with rollback on resource exhaustion.
            threads = self.machine.threads.spawn_pool(
                f"{self.name}-worker", self.pool_size
            )
            self.live_workers = self.pool_size
            for thread in threads:
                self.sim.process(self._worker(thread), name=thread.name)

    # ------------------------------------------------------------------
    def _spawn_worker(self) -> bool:
        """Add one worker thread; returns False if resources forbid it."""
        try:
            thread = self.machine.threads.spawn(
                f"{self.name}-worker-{self._worker_seq}"
            )
        except (MemoryExhausted, ThreadLimitExceeded):
            if not self.dynamic:
                raise
            self.spawn_failures += 1
            return False
        self._worker_seq += 1
        self.live_workers += 1
        self.sim.process(self._worker(thread), name=thread.name)
        return True

    def _manager(self):
        """Apache's spare-thread regulation loop.

        Like Apache, the spawn rate doubles every interval while the
        spare-thread deficit persists (1, 2, 4, ... capped), so a sudden
        load wave is absorbed in seconds rather than minutes.
        """
        burst = 8
        while True:
            yield self.sim.timeout(self.manager_interval)
            idle = self.idle_workers
            if idle < self.min_spare:
                room = self.pool_size - self.live_workers
                for _ in range(min(burst, room)):
                    if not self._spawn_worker():
                        break
                burst = min(burst * 2, 1024)
            else:
                burst = 8
                if idle > self.max_spare:
                    # Ask the surplus to retire as they hit accept again.
                    self._retire_requests += idle - self.max_spare

    # ------------------------------------------------------------------
    def _worker(self, thread):
        # Dynamic workers wake periodically so the manager's retire
        # requests are honoured even while the accept queue is quiet.
        accept_timeout = self.manager_interval if self.dynamic else None
        while True:
            if self.dynamic and self._retire_requests > 0:
                self._retire_requests -= 1
                self.live_workers -= 1
                thread.exit()
                return
            self.idle_workers += 1
            conn = yield from self.listener.accept(timeout=accept_timeout)
            self.idle_workers -= 1
            if conn is None:
                continue
            yield self._exec("accept", self.costs.accept)
            self.connections_handled += 1
            yield from self._serve_connection(conn)

    def _serve_connection(self, conn: Connection):
        """Blocking request/response loop bound to one worker thread."""
        while True:
            # Adaptive timeout (when mounted) tightens the fixed Apache
            # Timeout/KeepAliveTimeout as resource pressure rises.
            timeout = self.effective_idle_timeout(self.idle_timeout)
            request = yield from conn.server_recv(timeout)
            if request is None:
                # Idle timeout: disconnect the client to free this thread.
                self.idle_reaps += 1
                if conn.span is not None:
                    conn.span.mark("idle_reap")
                break
            if request is EOF:
                break
            yield from self._service_burst(conn)
            if not conn.peer_alive:
                break
            sent_ok = yield from self._blocking_send(conn, request)
            if not sent_ok:
                break
            self.requests_served += 1
            if not self.semantics.keep_alive:
                break
            self.keepalive_requests += 1
            yield self._exec("keepalive", self.costs.keepalive_check)
        yield self._exec("close", self.costs.close)
        conn.server_close()

    def _blocking_send(self, conn: Connection, request) -> object:
        """Generator: write the full response with blocking write(2) calls.

        Returns False if the client disappeared mid-response.
        """
        chunk = self.semantics.chunk_bytes
        remaining = self.semantics.response_wire_bytes(request)
        if conn.span is not None:
            conn.span.mark("tx_start")
        while remaining > 0:
            n = min(chunk, remaining)
            yield from conn.wait_writable(n)
            if not conn.peer_alive or conn.server_closed:
                return False
            yield self._exec("transmit", self._chunk_cost(n))
            conn.server_send_chunk(n, last=(remaining == n))
            remaining -= n
        return True

    def stats(self):
        out = super().stats()
        out["idle_reaps"] = self.idle_reaps
        out["pool_size"] = self.pool_size
        out["live_workers"] = self.live_workers
        out["idle_workers"] = self.idle_workers
        if self.dynamic:
            out["spawn_failures"] = self.spawn_failures
        return out
