"""Event-driven (Java NIO) server model — the paper's experimental *nio*.

Architecture, following the paper's description of its NIO server core:

* one *acceptor* thread drains the kernel backlog continuously and
  registers accepted channels with a selector — connection establishment
  therefore never waits for request-processing capacity (flat connection
  times, the paper's figure 4);
* a small number of *worker* threads (1-8) loop on readiness selection:
  read + parse whatever is readable, then write response bytes with
  non-blocking writes until the socket buffer is full, re-registering for
  writability and moving on to the next ready channel — so thousands of
  clients progress concurrently and none starves;
* the server never idle-reaps connections (no thread is held by an idle
  client), which is why it produces **zero** connection-reset errors;
* being Java, all CPU costs carry the JVM factor (see
  ``CostModel.scaled``).

Timer routing: with no per-connection reap timers, this architecture only
touches the kernel timing wheel through the shared TCP paths —
client-side SYN-retransmit and response-timeout pauses, which
true-cancel their losing timers when the race settles.
"""

from __future__ import annotations

from typing import Dict, List

from ..http.messages import CHUNK_BYTES
from ..net.selector import READ, WRITE, Selector
from ..net.tcp import EOF, Connection, ListenSocket
from ..osmodel.machine import Machine
from ..sim.core import Simulator
from .base import Server

__all__ = ["EventDrivenServer"]

#: Default Java-vs-native CPU factor for a 2004 JIT JVM on systems code.
DEFAULT_JVM_FACTOR = 1.05


class _ConnState:
    """Per-channel write queue and reentrancy guard."""

    __slots__ = ("queue", "remaining", "busy", "deferred", "closed")

    def __init__(self) -> None:
        # Response byte counts to write, at most a pipeline's worth.
        self.queue: List[int] = []
        self.remaining = 0  # bytes left of the in-progress response
        self.busy = False
        self.deferred = False
        self.closed = False


class EventDrivenServer(Server):
    """NIO-style selector + worker-thread server."""

    name = "nio"

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        listener: ListenSocket,
        workers: int = 1,
        jvm_factor: float = DEFAULT_JVM_FACTOR,
        selector_strategy: str = "shared",
        overload=None,
    ) -> None:
        super().__init__(sim, machine, listener, overload)
        self.costs = self.costs.scaled(jvm_factor)
        if workers < 1:
            raise ValueError("need at least one worker thread")
        if selector_strategy not in ("shared", "partitioned"):
            raise ValueError(
                f"unknown selector strategy {selector_strategy!r}"
            )
        self.workers = workers
        self.jvm_factor = jvm_factor
        self.selector_strategy = selector_strategy
        # "shared": one selector whose ready set all workers drain (the
        # paper's nio design).  "partitioned": one selector per worker and
        # round-robin channel assignment (the Netty/event-loop-group
        # design) — no cross-worker contention, but load can skew.
        n_selectors = workers if selector_strategy == "partitioned" else 1
        self.selectors = [Selector(sim) for _ in range(n_selectors)]
        self._assign_seq = 0
        self.events_processed = 0
        self._states: Dict[Connection, _ConnState] = {}

    @property
    def selector(self) -> Selector:
        """The selector (shared mode) or the first one (partitioned)."""
        return self.selectors[0]

    def start(self) -> None:
        if self.started:
            raise RuntimeError("server already started")
        self.started = True
        registry = self.machine.threads
        registry.spawn(f"{self.name}-acceptor")
        for i in range(self.workers):
            registry.spawn(f"{self.name}-worker-{i}")
        self.sim.process(self._acceptor(), name=f"{self.name}-acceptor")
        for i in range(self.workers):
            self.sim.process(self._worker(i), name=f"{self.name}-worker-{i}")

    # ------------------------------------------------------------------
    def _acceptor(self):
        """Continuously drain the kernel backlog into a selector."""
        while True:
            conn = yield from self.listener.accept()
            yield self._exec("accept", self.costs.accept)
            self.connections_handled += 1
            self._states[conn] = _ConnState()
            selector = self.selectors[self._assign_seq % len(self.selectors)]
            self._assign_seq += 1
            selector.register(conn, READ)

    def _worker(self, index: int):
        """Select -> dispatch -> handle loop."""
        selector = self.selectors[index % len(self.selectors)]
        per_event_cost = self.costs.select_per_event + self.costs.dispatch
        while True:
            conn, kind = yield from selector.next_ready()
            yield self._exec("select", per_event_cost)
            self.events_processed += 1
            state = self._states.get(conn)
            if state is None or state.closed:
                continue  # stale event for a closed channel
            if state.busy:
                # Another worker holds this channel; it will re-check.
                state.deferred = True
                continue
            state.busy = True
            yield from self._handle(conn, state, kind)
            while state.deferred and not state.closed:
                state.deferred = False
                yield from self._handle(conn, state, READ)
            state.busy = False

    # ------------------------------------------------------------------
    def _handle(self, conn: Connection, state: _ConnState, kind: int):
        """Drain readable data, then pump non-blocking writes."""
        if kind == READ:
            while True:
                item = conn.try_recv()
                if item is None:
                    break
                if item is EOF:
                    yield self._exec("close", self.costs.close)
                    self._close(conn, state)
                    return
                yield from self._service_burst(conn)
                state.queue.append(item.total_response_wire_bytes)
        yield from self._pump_writes(conn, state)

    def _pump_writes(self, conn: Connection, state: _ConnState):
        """Write until done or EWOULDBLOCK; manage interest ops."""
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
            room = conn.sndbuf - conn.in_flight
            n = min(chunk, state.remaining, room)
            if n <= 0:
                # EWOULDBLOCK: wait for writability, keep reading too.
                if conn.watcher is not None:
                    conn.watcher.set_interest(conn, READ | WRITE)
                return
            yield self._exec("transmit", self._chunk_cost(n))
            conn.server_send_chunk(n, last=(state.remaining == n))
            state.remaining -= n
            if state.remaining == 0:
                self.requests_served += 1
                yield self._exec("keepalive", self.costs.keepalive_check)
        if conn.watcher is not None:
            conn.watcher.set_interest(conn, READ)

    def _close(self, conn: Connection, state: _ConnState) -> None:
        state.closed = True
        if conn.watcher is not None:
            conn.watcher.unregister(conn)
        conn.server_close()
        self._states.pop(conn, None)

    def stats(self):
        out = super().stats()
        out["workers"] = self.workers
        out["selector_strategy"] = self.selector_strategy
        out["events_processed"] = self.events_processed
        # nio never reaps an idle channel; the key stays because row
        # digests hash every server-stats key.
        out["idle_reaps"] = 0
        out["channels_registered"] = sum(
            s.registered_count for s in self.selectors
        )
        out["ready_backlog"] = sum(s.ready_backlog for s in self.selectors)
        return out
