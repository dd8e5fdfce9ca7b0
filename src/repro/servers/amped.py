"""AMPED server model (Flash-style), a related-work baseline.

Pai, Druschel & Zwaenepoel's Flash server — cited by the paper as the
canonical *asymmetric multi-process event-driven* architecture — runs a
single event-driven loop that never blocks: potentially-blocking file
operations are shipped to a small pool of *helper* threads, whose
completions re-enter the event loop as ready events.

Here the helper pool absorbs the ``file_lookup`` cost (the disk/VFS part
of serving a request), letting it overlap with the loop's protocol work;
on a multiprocessor the helpers run in parallel with the loop.

Timer routing: like the other event-driven loop, AMPED holds no thread on
an idle client and arms no reap timers of its own; its timing-wheel
traffic is the shared TCP client-path pauses (SYN retransmit, response
timeouts), which are true-cancelled when their race settles.
"""

from __future__ import annotations

from typing import Dict, List

from ..http.messages import CHUNK_BYTES
from ..net.selector import READ, WRITE, Selector
from ..net.tcp import EOF, Connection, ListenSocket
from ..osmodel.machine import Machine
from ..sim.core import Simulator
from ..sim.resources import Store
from .base import Server

__all__ = ["AmpedServer"]

#: Synthetic readiness kind for helper-completed I/O (joins READ/WRITE).
IO_DONE = 4


class _ConnState:
    """Mirror of the event-driven server's per-channel write queue."""

    __slots__ = ("queue", "remaining", "closed")

    def __init__(self) -> None:
        self.queue: List[int] = []
        self.remaining = 0
        self.closed = False


class AmpedServer(Server):
    """Single event loop + helper threads for blocking file I/O."""

    name = "amped"

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        listener: ListenSocket,
        helpers: int = 2,
        overload=None,
    ) -> None:
        super().__init__(sim, machine, listener, overload)
        if helpers < 1:
            raise ValueError("need at least one helper")
        self.helpers = helpers
        self.selector = Selector(sim)
        self.io_queue: Store = Store(sim)
        self.io_completions = 0
        self._states: Dict[Connection, _ConnState] = {}

    def start(self) -> None:
        if self.started:
            raise RuntimeError("server already started")
        self.started = True
        registry = self.machine.threads
        registry.spawn(f"{self.name}-acceptor")
        registry.spawn(f"{self.name}-loop")
        self.sim.process(self._acceptor(), name=f"{self.name}-acceptor")
        self.sim.process(self._loop(), name=f"{self.name}-loop")
        for i in range(self.helpers):
            registry.spawn(f"{self.name}-helper-{i}")
            self.sim.process(self._helper(i), name=f"{self.name}-helper-{i}")

    # ------------------------------------------------------------------
    def _acceptor(self):
        while True:
            conn = yield from self.listener.accept()
            yield self._exec("accept", self.costs.accept)
            self.connections_handled += 1
            self._states[conn] = _ConnState()
            self.selector.register(conn, READ)

    def _helper(self, index: int):
        """Absorb file-lookup (disk) work off the event loop."""
        while True:
            conn, response_bytes = yield self.io_queue.get()
            yield self._exec("service", self.costs.file_lookup)
            if conn.span is not None:
                conn.span.mark("svc_end")
            self.io_completions += 1
            state = self._states.get(conn)
            if state is None or state.closed:
                continue
            state.queue.append(response_bytes)
            # Completion re-enters the (single-threaded) event loop.
            self.selector._enqueue(conn, IO_DONE)

    def _loop(self):
        """The never-blocking main event loop."""
        per_event = self.costs.select_per_event + self.costs.dispatch
        while True:
            conn, kind = yield from self.selector.next_ready()
            yield self._exec("select", per_event)
            state = self._states.get(conn)
            if state is None or state.closed:
                continue
            if kind == READ:
                closed = yield from self._drain_reads(conn, state)
                if closed:
                    continue
            yield from self._pump_writes(conn, state)

    def _drain_reads(self, conn: Connection, state: _ConnState):
        """Parse readable requests; hand file work to helpers."""
        while True:
            item = conn.try_recv()
            if item is None:
                return False
            if item is EOF:
                yield self._exec("close", self.costs.close)
                self._close(conn, state)
                return True
            # Loop does the protocol part only; disk goes to a helper.
            if conn.span is not None:
                conn.span.mark("svc_start")
            yield self._exec(
                "parse", self.costs.read_syscall + self.costs.parse_request
            )
            self.io_queue.put(
                (conn, item.total_response_wire_bytes)
            )

    def _pump_writes(self, conn: Connection, state: _ConnState):
        chunk = CHUNK_BYTES
        while True:
            if state.remaining == 0:
                if not state.queue:
                    break
                state.remaining = state.queue.pop(0)
                if conn.span is not None:
                    conn.span.mark("tx_start")
            if not conn.peer_alive:
                yield self._exec("close", self.costs.close)
                self._close(conn, state)
                return
            n = min(chunk, state.remaining, conn.sndbuf - conn.in_flight)
            if n <= 0:
                self.selector.set_interest(conn, READ | WRITE)
                return
            yield self._exec("transmit", self._chunk_cost(n))
            conn.server_send_chunk(n, last=(state.remaining == n))
            state.remaining -= n
            if state.remaining == 0:
                self.requests_served += 1
                yield self._exec("keepalive", self.costs.keepalive_check)
        self.selector.set_interest(conn, READ)

    def _close(self, conn: Connection, state: _ConnState) -> None:
        state.closed = True
        self.selector.unregister(conn)
        conn.server_close()
        self._states.pop(conn, None)

    def stats(self):
        out = super().stats()
        out["helpers"] = self.helpers
        out["io_completions"] = self.io_completions
        out["io_queue_depth"] = len(self.io_queue)
        return out
