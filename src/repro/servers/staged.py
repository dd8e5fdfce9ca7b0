"""Staged event-driven server (SEDA-style) — the paper's future work.

The paper's conclusion proposes: "Dividing the server in pipelined stages,
adding one or more threads to each stage and assigning a processor
affinity to each thread can convert a multiprocessor running a staged
event-driven Java application server in a real high-scalable request
processing pipeline."

This model implements that pipeline with three stages connected by
explicit event queues (Welsh et al.'s SEDA structure):

  accept stage  ->  read/parse stage  ->  send stage

Each stage has its own (small) thread pool; handoffs between stages cost
CPU (``stage_handoff``).  Per-connection response ordering is preserved by
a per-connection writer lock, mirroring SEDA's per-stage event ordering.
Being a Java design, costs carry the JVM factor.

Timer routing: stages hand off through queues and never block on
per-connection timers, so the wheel traffic this architecture generates
comes entirely from the shared TCP client paths (connect retransmit and
response-timeout races, both of which cancel their losing pause with an
O(1) wheel unlink) and the opt-in adaptive sweeper in the selector loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..http.protocol import HttpSemantics
from ..net.selector import READ, Selector
from ..net.tcp import EOF, Connection, ListenSocket
from ..osmodel.costs import CostModel
from ..osmodel.machine import Machine
from ..sim.core import Simulator
from ..sim.resources import Store
from .base import Server
from .eventdriven import DEFAULT_JVM_FACTOR

__all__ = ["StagedServer"]


class _WriteState:
    """Per-connection pending responses + single-writer guard."""

    __slots__ = ("pending", "busy", "closed")

    def __init__(self) -> None:
        # Response byte counts, at most a pipeline's worth.
        self.pending: List[int] = []
        self.busy = False
        self.closed = False


class StagedServer(Server):
    """SEDA-style pipelined event-driven server."""

    name = "staged"

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        listener: ListenSocket,
        threads_per_stage: int = 1,
        jvm_factor: float = DEFAULT_JVM_FACTOR,
        semantics: Optional[HttpSemantics] = None,
        costs: Optional[CostModel] = None,
        overload=None,
    ) -> None:
        base_costs = (costs or CostModel()).scaled(jvm_factor)
        super().__init__(sim, machine, listener, semantics, base_costs, overload)
        if threads_per_stage < 1:
            raise ValueError("need at least one thread per stage")
        self.threads_per_stage = threads_per_stage
        self.jvm_factor = jvm_factor
        self.selector = Selector(sim)
        self.send_queue: Store = Store(sim)
        self.stage_handoffs = 0
        self._states: Dict[Connection, _WriteState] = {}

    def start(self) -> None:
        if self.started:
            raise RuntimeError("server already started")
        self.started = True
        registry = self.machine.threads
        registry.spawn(f"{self.name}-acceptor")
        self.sim.process(self._accept_stage(), name=f"{self.name}-accept")
        for i in range(self.threads_per_stage):
            registry.spawn(f"{self.name}-reader-{i}")
            self.sim.process(self._read_stage(i), name=f"{self.name}-read-{i}")
        for i in range(self.threads_per_stage):
            registry.spawn(f"{self.name}-sender-{i}")
            self.sim.process(self._send_stage(i), name=f"{self.name}-send-{i}")

    # -- stage 1: accept ----------------------------------------------------
    def _accept_stage(self):
        while True:
            conn = yield from self.listener.accept()
            yield self._exec("accept", self.costs.accept)
            self.connections_handled += 1
            self._states[conn] = _WriteState()
            self.selector.register(conn, READ)

    # -- stage 2: read + parse ------------------------------------------------
    def _read_stage(self, index: int):
        per_event = self.costs.select_per_event + self.costs.dispatch
        while True:
            conn, _kind = yield from self.selector.next_ready()
            yield self._exec("select", per_event)
            state = self._states.get(conn)
            if state is None or state.closed:
                continue
            while True:
                item = conn.try_recv()
                if item is None:
                    break
                if item is EOF:
                    yield self._exec("close", self.costs.close)
                    self._close(conn, state)
                    break
                yield from self._service_burst(conn)
                state.pending.append(self.semantics.response_wire_bytes(item))
                yield self._exec("handoff", self.costs.stage_handoff)
                self.stage_handoffs += 1
                self.send_queue.put(conn)

    # -- stage 3: send ----------------------------------------------------------
    def _send_stage(self, index: int):
        chunk = self.semantics.chunk_bytes
        while True:
            conn = yield self.send_queue.get()
            state = self._states.get(conn)
            if state is None or state.closed or state.busy:
                continue  # closed, or another sender is draining this conn
            state.busy = True
            while state.pending and not state.closed:
                remaining = state.pending.pop(0)
                if conn.span is not None:
                    conn.span.mark("tx_start")
                while remaining > 0:
                    n = min(chunk, remaining)
                    yield from conn.wait_writable(n)
                    if not conn.peer_alive:
                        yield self._exec("close", self.costs.close)
                        self._close(conn, state)
                        break
                    yield self._exec("transmit", self._chunk_cost(n))
                    conn.server_send_chunk(n, last=(remaining == n))
                    remaining -= n
                else:
                    self.requests_served += 1
                    if not self.semantics.keep_alive:
                        yield self._exec("close", self.costs.close)
                        self._close(conn, state)
                        break
                    yield self._exec("keepalive", self.costs.keepalive_check)
                    continue
                break  # inner loop broke: connection closed
            state.busy = False

    def _close(self, conn: Connection, state: _WriteState) -> None:
        state.closed = True
        self.selector.unregister(conn)
        conn.server_close()
        self._states.pop(conn, None)

    def stats(self):
        out = super().stats()
        out["threads_per_stage"] = self.threads_per_stage
        out["stage_handoffs"] = self.stage_handoffs
        out["send_queue_depth"] = len(self.send_queue)
        return out
