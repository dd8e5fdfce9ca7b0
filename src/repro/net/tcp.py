"""TCP-like connections between emulated clients and the server under test.

This is not a packet-level TCP: it models exactly the transport behaviours
the paper's experiments hinge on.

Client side (httperf semantics)
    * three-way handshake with SYN retransmission (3 s, 6 s, 12 s backoff,
      as in Linux 2.4) — when the server's listen backlog is full the SYN
      is silently dropped and connection time jumps by whole retry periods;
    * a socket timeout (10 s in the paper) applied per activity: connect,
      waiting for a reply, receiving a reply;
    * detection of server resets: sending on a connection the server has
      idle-reaped raises :class:`ResetByServer` after a round trip.

Server side
    * a kernel listen backlog (:class:`ListenSocket`) that completes
      handshakes independently of the application accepting;
    * per-connection kernel memory, a bounded send buffer with blocking
      (``wait_writable``) and non-blocking (``can_send``) interfaces;
    * idle reaping (``server_close`` after a recv timeout) — the mechanism
      behind the paper's connection-reset errors;
    * readiness notifications to a selector for event-driven servers.

Responses stream as chunks over the shared downlink, so bandwidth is
naturally shared between all in-progress transfers, and bytes sent to
clients that already gave up are genuinely wasted — both effects the paper
discusses.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..osmodel.costs import CostModel
from ..osmodel.machine import Machine
from ..osmodel.memory import MemoryExhausted
from ..overload.policies import Signals
from ..sim.core import Event, SimulationError, Simulator
from ..sim.resources import Store
from .link import DuplexLink

__all__ = [
    "EOF",
    "ConnectTimeout",
    "ResponseTimeout",
    "ResetByServer",
    "PendingResponse",
    "Connection",
    "ListenSocket",
]

#: Bytes on the wire for SYN / SYN-ACK / FIN / RST segments.
HANDSHAKE_BYTES = 64
FIN_BYTES = 64
RST_BYTES = 64

#: Linux-2.4-style SYN retransmission gaps (seconds).
SYN_RETRANSMIT_GAPS = (3.0, 6.0, 12.0)


class _EOFType:
    """Sentinel delivered to the server when the client closed its end."""

    _instance: Optional["_EOFType"] = None

    def __new__(cls) -> "_EOFType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EOF"


EOF = _EOFType()


class ConnectTimeout(Exception):
    """The client's socket timeout expired while establishing."""


class ResponseTimeout(Exception):
    """The client's socket timeout expired waiting for/receiving a reply."""


class ResetByServer(Exception):
    """The client sent on a connection the server had already closed."""


class PendingResponse:
    """Client-side bookkeeping for one outstanding request."""

    __slots__ = ("request", "sent_at", "first_byte", "complete", "bytes_received")

    def __init__(self, sim: Simulator, request: Any) -> None:
        self.request = request
        self.sent_at = sim.now
        self.first_byte = sim.event()  # fires with the arrival timestamp
        self.complete = sim.event()  # fires with the completion timestamp
        self.bytes_received = 0


class Connection:
    """One client-server TCP connection."""

    __slots__ = (
        "sim",
        "duplex",
        "listener",
        "sndbuf",
        "established",
        "client_closed",
        "server_closed",
        "dead",
        "accepted_by_app",
        "connect_started",
        "established_at",
        "in_flight",
        "inbox",
        "watcher",
        "span",
        "_backlog_since",
        "_established_ev",
        "_syn_accepted",
        "_recv_pending",
        "_writable_waiters",
        "_kernel_bytes",
    )

    def __init__(
        self,
        sim: Simulator,
        duplex: DuplexLink,
        listener: "ListenSocket",
        sndbuf: int = 64 * 1024,
    ) -> None:
        self.sim = sim
        self.duplex = duplex
        self.listener = listener
        self.sndbuf = sndbuf
        self.established = False
        self.client_closed = False
        self.server_closed = False
        self.dead = False
        self.accepted_by_app = False
        self.connect_started: Optional[float] = None
        self.established_at: Optional[float] = None
        self.in_flight = 0
        self.inbox = Store(sim)
        self.watcher = None  # selector, for event-driven servers
        recorder = listener.recorder
        self.span = recorder.open() if recorder is not None else None
        self._backlog_since: Optional[float] = None  # accept-queue entry time
        self._established_ev = sim.event()
        self._syn_accepted = False
        # Replies arrive in request order and at most a pipeline's worth
        # is outstanding: a short list, far cheaper to hold than a deque.
        self._recv_pending: List[PendingResponse] = []
        self._writable_waiters: List[Event] = []
        self._kernel_bytes = 0

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def connect(self, timeout: float = 10.0):
        """Generator: establish the connection or raise ConnectTimeout.

        Returns the connection-establishment time (httperf's "connection
        time" metric).
        """
        if self.connect_started is not None:
            raise SimulationError("connect() called twice")
        self.connect_started = self.sim.now
        deadline = self.connect_started + timeout
        self._send_syn()
        retry = 0
        next_retry_at = self.connect_started + SYN_RETRANSMIT_GAPS[0]
        while True:
            wait_until = min(next_retry_at, deadline)
            yield self.sim.within(
                self._established_ev, max(0.0, wait_until - self.sim.now)
            )
            if self.established:
                self.established_at = self.sim.now
                return self.established_at - self.connect_started
            if self.sim.now >= deadline - 1e-12:
                self.client_close()
                raise ConnectTimeout(
                    f"no SYN-ACK within {timeout:.1f}s ({retry + 1} attempts)"
                )
            self._send_syn()
            retry += 1
            gap = SYN_RETRANSMIT_GAPS[min(retry, len(SYN_RETRANSMIT_GAPS) - 1)]
            next_retry_at = self.sim.now + gap

    def send_request(self, request: Any):
        """Generator: put a request on the wire.

        Returns a :class:`PendingResponse`, or raises
        :class:`ResetByServer` if the server had idle-reaped the connection
        (detected one round trip after sending, like a real RST).
        """
        if not self.established:
            raise SimulationError("send_request on unestablished connection")
        if self.client_closed:
            raise SimulationError("send_request on closed connection")
        pending = PendingResponse(self.sim, request)
        if self.span is not None:
            # Same event as ``pending.sent_at`` — the mark's timestamp is
            # the identical float the client measures response time from,
            # which is what lets trace attribution sum exactly.
            self.span.mark("req_sent")
        yield self.duplex.up.transmit(request.wire_bytes)
        if self.server_closed or self.dead:
            # The server answers with an RST segment.
            yield self.duplex.down.transmit(RST_BYTES)
            raise ResetByServer()
        self._recv_pending.append(pending)
        if self.span is not None:
            self.span.mark("req_arrive")
        self.inbox.put(request)
        self._notify_readable()
        return pending

    def await_response(
        self,
        pending: PendingResponse,
        ttfb_timeout: float = 10.0,
        stall_timeout: float = 60.0,
    ):
        """Generator: wait for ``pending`` to complete.

        Returns the completion timestamp.  Raises
        :class:`ResponseTimeout` if the first byte does not arrive within
        ``ttfb_timeout`` or the body within ``stall_timeout``.
        """
        if not pending.first_byte.triggered:
            yield self.sim.within(pending.first_byte, ttfb_timeout)
            if not pending.first_byte.triggered:
                raise ResponseTimeout("timed out waiting for reply")
        if not pending.complete.triggered:
            yield self.sim.within(pending.complete, stall_timeout)
            if not pending.complete.triggered:
                raise ResponseTimeout("timed out receiving reply body")
        return pending.complete.value

    def client_close(self) -> None:
        """Close (or abandon) the client end.

        On an established connection a FIN travels to the server, which
        sees :data:`EOF` on its receive path.  During connect the
        handshake-in-progress is killed by the RST path instead.
        """
        if self.client_closed:
            return
        self.client_closed = True
        if self.established:
            self.duplex.up.transmit_call(FIN_BYTES, self._fin_arrived)

    # ------------------------------------------------------------------
    # handshake plumbing
    # ------------------------------------------------------------------
    def _send_syn(self) -> None:
        if self._syn_accepted or self.client_closed:
            return
        self.duplex.up.transmit_call(HANDSHAKE_BYTES, self._syn_arrived)

    def _syn_arrived(self) -> None:
        if self._syn_accepted or self.client_closed:
            return
        if self.listener.offer(self):
            self._syn_accepted = True
            self.duplex.down.transmit_call(
                HANDSHAKE_BYTES, self._synack_arrived
            )

    def _synack_arrived(self) -> None:
        if self.client_closed:
            # Client aborted while the SYN-ACK was in flight: answer RST.
            self.duplex.up.transmit_call(RST_BYTES, self._rst_arrived)
            return
        self.established = True
        self._established_ev.succeed()
        if self.span is not None:
            self.span.mark("established")

    def _rst_arrived(self) -> None:
        self.dead = True
        if self.accepted_by_app and not self.server_closed:
            self.inbox.put(EOF)
            self._notify_readable()

    def _fin_arrived(self) -> None:
        if self.server_closed or self.dead:
            return
        self.inbox.put(EOF)
        self._notify_readable()

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------
    @property
    def peer_alive(self) -> bool:
        """False once the client closed or abandoned the connection."""
        return not self.client_closed and not self.dead

    def server_recv(self, idle_timeout: Optional[float] = None):
        """Generator: receive the next request (or :data:`EOF`).

        With ``idle_timeout`` set, returns ``None`` if nothing arrives in
        time — the caller is expected to idle-reap the connection, which is
        exactly what Apache's ``Timeout``/``KeepAliveTimeout`` do.
        """
        get = self.inbox.get()
        if get.triggered:
            return get.value
        if idle_timeout is None:
            item = yield get
            return item
        # The paper's hottest cancel site: every request that beats the
        # 15 s idle reap cancels the wait's timeout, an O(1) wheel unlink.
        yield self.sim.within(get, idle_timeout)
        # Read get itself, not the wait's value: in a same-instant tie a
        # request can arrive after the timeout fired, and it must then be
        # returned, not dropped by Store.cancel.
        if get.triggered:
            return get.value
        self.inbox.cancel(get)
        return None

    def try_recv(self) -> Any:
        """Non-blocking receive: a request, :data:`EOF`, or ``None``."""
        return self.inbox.try_get()

    def can_send(self, nbytes: int) -> bool:
        """True if ``nbytes`` fit in the socket send buffer right now."""
        return self.in_flight + nbytes <= self.sndbuf

    def wait_writable(self, nbytes: int):
        """Generator: block until ``nbytes`` fit in the send buffer."""
        while not self.can_send(nbytes) and self.peer_alive:
            ev = self.sim.event()
            self._writable_waiters.append(ev)
            yield ev

    def server_send_chunk(self, nbytes: int, last: bool = False) -> None:
        """Queue one response chunk onto the downlink (non-blocking).

        The caller must ensure :meth:`can_send` first; event-driven servers
        use exactly this pattern (write until EWOULDBLOCK).
        """
        if self.server_closed:
            raise SimulationError("server_send_chunk after server_close")
        if not self.can_send(nbytes):
            raise SimulationError("send buffer overflow; call can_send first")
        self.in_flight += nbytes
        self.duplex.down.transmit_call(
            nbytes, self._on_chunk_delivered, nbytes, last
        )

    def server_close(self) -> None:
        """Close the server end (idle reap, error, or end of connection)."""
        if self.server_closed:
            return
        self.server_closed = True
        self._free_kernel_bytes()
        self._wake_writable_waiters()
        if self.span is not None:
            self.span.mark("server_close")

    # ------------------------------------------------------------------
    # delivery plumbing
    # ------------------------------------------------------------------
    def _on_chunk_delivered(self, nbytes: int, last: bool) -> None:
        self.in_flight -= nbytes
        self._wake_writable_waiters()
        if self.watcher is not None and self.in_flight < self.sndbuf:
            self.watcher.notify_writable(self)
        if self.client_closed:
            return  # client is gone; these bytes were wasted bandwidth
        if not self._recv_pending:
            return
        pending = self._recv_pending[0]
        pending.bytes_received += nbytes
        if not pending.first_byte.triggered:
            pending.first_byte.succeed(self.sim.now)
        if last:
            self._recv_pending.pop(0)
            pending.complete.succeed(self.sim.now)
            if self.span is not None:
                self.span.mark("reply_done")

    def _wake_writable_waiters(self) -> None:
        if not self._writable_waiters:
            return
        waiters, self._writable_waiters = self._writable_waiters, []
        for waiter in waiters:
            waiter.succeed()

    def _notify_readable(self) -> None:
        if self.watcher is not None:
            self.watcher.notify_readable(self)

    def _free_kernel_bytes(self) -> None:
        if self._kernel_bytes:
            self.listener.machine.memory.free(self._kernel_bytes)
            self._kernel_bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "dead"
            if self.dead
            else "established"
            if self.established
            else "connecting"
        )
        return f"<Connection {state} in_flight={self.in_flight}>"


class ListenSocket:
    """The kernel side of the server's listening port.

    Handshakes complete into a bounded backlog regardless of whether the
    application has accepted; a full backlog silently drops SYNs (clients
    must retransmit), and each drop costs the SUT a little CPU — the
    "overhead of rejecting a huge number of connections" the paper blames
    for httpd2's degradation at extreme load.

    A mounted :class:`~repro.overload.OverloadControl` turns the accident
    into policy: its admission policy is consulted *before* the kernel
    checks (deliberate SYN shedding), its queue discipline orders the
    backlog (FIFO/LIFO), and its dequeue hook may early-close connections
    that waited too long to be worth serving.  Servers mount it via the
    ``overload`` argument of :class:`~repro.servers.base.Server`.
    """

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        costs: Optional[CostModel] = None,
        backlog: int = 511,
        kernel_bytes_per_conn: int = 32 * 1024,
        overload=None,
        recorder=None,
        profiler=None,
        probe=None,
    ) -> None:
        self.sim = sim
        self.machine = machine
        self.costs = costs or CostModel()
        self.kernel_bytes_per_conn = kernel_bytes_per_conn
        self.overload = overload
        #: Optional :class:`~repro.obs.SpanRecorder`: connections open a
        #: lifecycle span at creation and mark backlog entry/accept here.
        self.recorder = recorder
        #: Optional :class:`~repro.obs.PhaseProfiler` for kernel-side CPU
        #: (SYN reject cost).
        self.profiler = profiler
        #: Optional listener probe (``on_drop(t)`` / ``on_enqueue(t,
        #: depth)``): the cluster telemetry's per-replica shed-rate and
        #: backlog-depth series.  Pure bookkeeping, pay-for-use.
        self.probe = probe
        self._backlog = Store(sim, capacity=backlog)
        self.syns_received = 0
        self.syns_dropped = 0
        self.syns_shed = 0  # the subset of drops decided by policy
        self.handshakes_completed = 0
        self.accepted = 0
        self.dead_on_accept = 0
        self.early_closed = 0
        self.backlog_peak = 0

    @property
    def backlog_depth(self) -> int:
        """Connections completed by the kernel but not yet accepted."""
        return len(self._backlog)

    @property
    def backlog_capacity(self) -> int:
        """Size of the kernel accept queue."""
        return self._backlog.capacity or 0

    def _charge_reject(self) -> None:
        """CPU cost of dropping a SYN (fire and forget, phase-attributed)."""
        if self.profiler is not None:
            self.profiler.add("reject", self.costs.reject)
        self.machine.cpu.charge(self.costs.reject)

    @property
    def would_drop_syn(self) -> bool:
        """Whether the kernel would drop a SYN arriving right now."""
        return self._backlog.is_full and self._backlog.waiting_getters == 0

    def drop_flood(self, count: int) -> None:
        """``count`` aggregated SYNs arrive at a full backlog and drop.

        The batched boundary touch of the fluid client model
        (:mod:`repro.workload.fluid`): the overflow population's SYN mass
        is counted and billed to the SUT (one pooled reject burst) in a
        single call instead of ``count`` discrete ``offer()`` events.
        Callers must check :attr:`would_drop_syn` first — this method
        never queues.
        """
        self.syns_received += count
        self.syns_dropped += count
        if self.profiler is not None:
            self.profiler.add("reject", count * self.costs.reject)
        self.machine.cpu.charge(count * self.costs.reject)
        if self.probe is not None:
            for _ in range(count):
                self.probe.on_drop(self.sim.now)

    # -- overload-control plumbing ------------------------------------------
    def _oldest_wait(self) -> float:
        """Age of the longest-queued connection (the standing queue delay)."""
        ctl = self.overload
        if ctl is not None and ctl.discipline.front_insert:
            conn = self._backlog.peek_back()  # LIFO: oldest at the back
        else:
            conn = self._backlog.peek_front()
        if conn is None or conn._backlog_since is None:
            return 0.0
        return self.sim.now - conn._backlog_since

    def signals(self) -> Signals:
        """Current :class:`~repro.overload.Signals` snapshot for policies."""
        return Signals(
            queue_depth=self.backlog_depth,
            queue_capacity=self.backlog_capacity,
            queue_delay=self._oldest_wait(),
            pressure=self.machine.memory.pressure,
        )

    def offer(self, conn: Connection) -> bool:
        """A SYN arrived; queue it or drop it (by policy or by the kernel)."""
        self.syns_received += 1
        ctl = self.overload
        if ctl is not None and not ctl.admission.on_arrival(
            self.sim.now, self.signals()
        ):
            self.syns_dropped += 1
            self.syns_shed += 1
            if self.probe is not None:
                self.probe.on_drop(self.sim.now)
            self._charge_reject()
            if conn.span is not None:
                conn.span.mark("syn_shed")
            return False
        if self._backlog.is_full and self._backlog.waiting_getters == 0:
            self.syns_dropped += 1
            if self.probe is not None:
                self.probe.on_drop(self.sim.now)
            self._charge_reject()
            if conn.span is not None:
                conn.span.mark("syn_drop")
            return False
        try:
            self.machine.memory.allocate(
                self.kernel_bytes_per_conn, what="kernel socket"
            )
        except MemoryExhausted:
            self.syns_dropped += 1
            if self.probe is not None:
                self.probe.on_drop(self.sim.now)
            if conn.span is not None:
                conn.span.mark("syn_drop")
            return False
        conn._kernel_bytes = self.kernel_bytes_per_conn
        conn._backlog_since = self.sim.now
        front = ctl is not None and ctl.discipline.front_insert
        self._backlog.put(conn, front=front)
        self.handshakes_completed += 1
        if conn.span is not None:
            conn.span.mark("backlog_enter")
        if self.backlog_depth > self.backlog_peak:
            self.backlog_peak = self.backlog_depth
        if self.probe is not None:
            self.probe.on_enqueue(self.sim.now, self.backlog_depth)
        return True

    def _hand_over(self, conn: Connection) -> bool:
        """Give a dequeued connection to the application, or discard it.

        Discarded: killed by a client RST while queued, or early-closed
        by the mounted overload control's dequeue-time check.
        """
        if conn.dead:
            self.dead_on_accept += 1
            conn._free_kernel_bytes()
            return False
        ctl = self.overload
        if ctl is not None:
            since = conn._backlog_since
            sojourn = 0.0 if since is None else self.sim.now - since
            ctl.record_queue_delay(sojourn)
            if not ctl.admission.on_dequeue(
                self.sim.now, sojourn, self.signals()
            ):
                # Early close: refuse service to a connection that waited
                # too long; the client observes a reset if it ever sends.
                self.early_closed += 1
                if conn.span is not None:
                    conn.span.mark("early_close")
                conn.server_close()
                return False
        conn.accepted_by_app = True
        if conn.span is not None:
            conn.span.mark("accept")
        self.accepted += 1
        return True

    def accept(self, timeout: Optional[float] = None):
        """Generator: block until a live connection is available.

        Connections killed by a client RST while queued are skipped (and
        their kernel memory freed), like a real accept queue.  With
        ``timeout`` set, returns ``None`` if nothing arrives in time —
        used by servers whose workers must wake up periodically (e.g.
        dynamic pool management).
        """
        while True:
            get = self._backlog.get()
            if not get.triggered and timeout is not None:
                yield self.sim.within(get, timeout)
                if not get.triggered:
                    self._backlog.cancel(get)
                    return None
                conn = get.value
            else:
                conn = yield get
            if self._hand_over(conn):
                return conn

