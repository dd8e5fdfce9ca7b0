"""Unit/integration tests for the TCP connection model."""

import pytest

from repro.net import (
    EOF,
    ConnectTimeout,
    Connection,
    ListenSocket,
    ResetByServer,
    ResponseTimeout,
)
from repro.net.link import DuplexLink
from repro.osmodel import Machine, MachineSpec
from repro.sim import Simulator


class FakeRequest:
    """Minimal request carrier for transport tests."""

    wire_bytes = 300

    def __init__(self, tag="req"):
        self.tag = tag


def make_testbed(backlog=511, bandwidth=1e7, latency=0.001):
    sim = Simulator()
    machine = Machine(sim, MachineSpec(cpus=1))
    listener = ListenSocket(sim, machine, backlog=backlog)
    duplex = DuplexLink(sim, bandwidth, latency)
    return sim, machine, listener, duplex


def connect_ok(sim, listener, duplex, timeout=10.0):
    conn = Connection(sim, duplex, listener)
    proc = sim.process(conn.connect(timeout))
    return conn, proc


def test_fresh_connection_is_small(bytes_per_instance):
    sim, _machine, listener, duplex = make_testbed()
    # Queues are allocated on first use, so a connection that has not
    # carried a byte holds no empty deques.
    assert bytes_per_instance(lambda: Connection(sim, duplex, listener)) < 1024


# ---------------------------------------------------------------------------
# handshake
# ---------------------------------------------------------------------------

def test_handshake_completes_quickly_with_room():
    sim, _machine, listener, duplex = make_testbed()
    conn, proc = connect_ok(sim, listener, duplex)
    conn_time = sim.run_process(proc)
    assert conn.established
    # One RTT: SYN up + SYN-ACK down (plus negligible serialization).
    assert conn_time == pytest.approx(duplex.rtt, rel=0.2)
    assert listener.backlog_depth == 1
    assert listener.handshakes_completed == 1


def test_connection_time_metric_recorded():
    sim, _machine, listener, duplex = make_testbed()
    conn, proc = connect_ok(sim, listener, duplex)
    sim.run_process(proc)
    assert conn.established_at is not None
    assert conn.connect_started == 0.0


def test_backlog_full_drops_syn_and_retry_succeeds():
    sim, _machine, listener, duplex = make_testbed(backlog=1)
    # Fill the backlog with a connection nobody accepts.
    first, p1 = connect_ok(sim, listener, duplex)
    sim.run_process(p1)
    # Second connect: first SYN dropped; a retry succeeds after the
    # backlog frees (we accept the first at t=1).
    second, p2 = connect_ok(sim, listener, duplex)

    def drain():
        yield sim.timeout(1.0)
        got = yield sim.process(listener.accept())
        assert got is first

    sim.process(drain())
    conn_time = sim.run_process(p2)
    assert second.established
    # Establishment required at least one 3 s SYN retransmission.
    assert conn_time >= 3.0
    assert listener.syns_dropped >= 1


def test_connect_timeout_when_backlog_never_frees():
    sim, _machine, listener, duplex = make_testbed(backlog=1)
    _first, p1 = connect_ok(sim, listener, duplex)
    sim.run_process(p1)
    second, p2 = connect_ok(sim, listener, duplex, timeout=10.0)
    with pytest.raises(ConnectTimeout):
        sim.run_process(p2)
    assert sim.now == pytest.approx(10.0, abs=0.1)
    assert second.client_closed


def test_reject_charges_cpu():
    sim, machine, listener, duplex = make_testbed(backlog=1)
    _first, p1 = connect_ok(sim, listener, duplex)
    sim.run_process(p1)
    _second, p2 = connect_ok(sim, listener, duplex, timeout=4.0)
    with pytest.raises(ConnectTimeout):
        sim.run_process(p2)
    assert machine.cpu.total_cost > 0  # reject path cost


def test_aborted_connect_is_skipped_by_accept():
    sim, machine, listener, duplex = make_testbed(backlog=16)
    conn, proc = connect_ok(sim, listener, duplex)
    sim.run_process(proc)
    # Client gives up before the app accepts; RST kills the backlog entry.
    conn.client_closed = True
    conn.dead = True
    acceptor_result = []

    def do_accept():
        got = yield sim.process(listener.accept())
        acceptor_result.append(got)

    # A healthy second connection arrives and must be the one accepted.
    healthy, p2 = connect_ok(sim, listener, duplex)
    sim.run_process(p2)
    sim.process(do_accept())
    sim.run()
    assert acceptor_result == [healthy]
    assert listener.dead_on_accept == 1
    assert machine.memory.used_bytes == listener.kernel_bytes_per_conn


# ---------------------------------------------------------------------------
# request / response
# ---------------------------------------------------------------------------

def serve_one(sim, listener, response_bytes=8000, chunk=4096, close_after=False):
    """Minimal server: accept one conn, answer every request."""

    def server():
        conn = yield sim.process(listener.accept())
        while True:
            req = yield from conn.server_recv()
            if req is EOF:
                conn.server_close()
                return
            remaining = response_bytes
            while remaining > 0:
                n = min(chunk, remaining)
                yield from conn.wait_writable(n)
                if not conn.peer_alive:
                    conn.server_close()
                    return
                conn.server_send_chunk(n, last=(remaining - n == 0))
                remaining -= n
            if close_after:
                conn.server_close()
                return

    return sim.process(server())


def test_request_response_roundtrip():
    sim, _machine, listener, duplex = make_testbed()
    serve_one(sim, listener, response_bytes=8000)
    results = []

    def client():
        conn = Connection(sim, duplex, listener)
        yield from conn.connect()
        pending = yield from conn.send_request(FakeRequest())
        done_at = yield from conn.await_response(pending)
        results.append((done_at, pending.bytes_received))
        conn.client_close()

    sim.process(client())
    sim.run(until=5.0)
    assert len(results) == 1
    assert results[0][1] == 8000


def test_pipelined_requests_complete_in_order():
    sim, _machine, listener, duplex = make_testbed()
    serve_one(sim, listener, response_bytes=4000)
    order = []

    def client():
        conn = Connection(sim, duplex, listener)
        yield from conn.connect()
        p1 = yield from conn.send_request(FakeRequest("a"))
        p2 = yield from conn.send_request(FakeRequest("b"))
        t1 = yield from conn.await_response(p1)
        t2 = yield from conn.await_response(p2)
        order.append((t1, t2))
        conn.client_close()

    sim.process(client())
    sim.run(until=5.0)
    (t1, t2), = order
    assert t1 <= t2


def test_send_after_server_close_raises_reset():
    sim, _machine, listener, duplex = make_testbed()
    serve_one(sim, listener, response_bytes=1000, close_after=True)
    outcomes = []

    def client():
        conn = Connection(sim, duplex, listener)
        yield from conn.connect()
        p1 = yield from conn.send_request(FakeRequest())
        yield from conn.await_response(p1)
        yield sim.timeout(1.0)  # think; server already closed
        try:
            yield from conn.send_request(FakeRequest())
        except ResetByServer:
            outcomes.append("reset")

    sim.process(client())
    sim.run(until=10.0)
    assert outcomes == ["reset"]


def test_idle_timeout_recv_returns_none():
    sim, _machine, listener, duplex = make_testbed()
    reaped = []

    def server():
        conn = yield sim.process(listener.accept())
        req = yield from conn.server_recv(idle_timeout=2.0)
        reaped.append(req)
        conn.server_close()

    sim.process(server())

    def client():
        conn = Connection(sim, duplex, listener)
        yield from conn.connect()
        # Never send anything: the server should reap at ~2 s.

    sim.process(client())
    sim.run(until=5.0)
    assert reaped == [None]


def test_client_close_delivers_eof():
    sim, _machine, listener, duplex = make_testbed()
    got = []

    def server():
        conn = yield sim.process(listener.accept())
        req = yield from conn.server_recv()
        got.append(req)
        conn.server_close()

    sim.process(server())

    def client():
        conn = Connection(sim, duplex, listener)
        yield from conn.connect()
        conn.client_close()

    sim.process(client())
    sim.run(until=5.0)
    assert got == [EOF]


def test_response_timeout_when_server_never_replies():
    sim, _machine, listener, duplex = make_testbed()

    def server():
        conn = yield sim.process(listener.accept())
        yield from conn.server_recv()
        yield sim.timeout(100.0)  # never reply

    sim.process(server())
    outcomes = []

    def client():
        conn = Connection(sim, duplex, listener)
        yield from conn.connect()
        pending = yield from conn.send_request(FakeRequest())
        try:
            yield from conn.await_response(pending, ttfb_timeout=3.0)
        except ResponseTimeout:
            outcomes.append(sim.now)
        conn.client_close()

    sim.process(client())
    sim.run(until=20.0)
    assert len(outcomes) == 1
    assert outcomes[0] == pytest.approx(3.0, abs=0.1)


def test_send_buffer_backpressure_blocks_writer():
    sim, _machine, listener, duplex = make_testbed(bandwidth=1000.0)
    # Slow link: 64 KB sndbuf fills; writer must block in wait_writable.
    progress = []

    def server():
        conn = yield sim.process(listener.accept())
        req = yield from conn.server_recv()
        assert req is not EOF
        total = 200 * 1024
        chunk = 16 * 1024
        sent = 0
        while sent < total:
            yield from conn.wait_writable(chunk)
            if not conn.peer_alive:
                break
            conn.server_send_chunk(chunk, last=(sent + chunk >= total))
            sent += chunk
            progress.append((sim.now, conn.in_flight))
        conn.server_close()

    sim.process(server())

    def client():
        conn = Connection(sim, duplex, listener)
        yield from conn.connect()
        pending = yield from conn.send_request(FakeRequest())
        yield from conn.await_response(pending, ttfb_timeout=1e6, stall_timeout=1e6)
        conn.client_close()

    sim.process(client())
    sim.run()
    # in-flight never exceeded the send buffer
    assert max(in_flight for _t, in_flight in progress) <= 64 * 1024


def test_wasted_bytes_when_client_abandons():
    sim, _machine, listener, duplex = make_testbed(bandwidth=2000.0)
    serve_one(sim, listener, response_bytes=8000, chunk=2000)

    def client():
        conn = Connection(sim, duplex, listener)
        yield from conn.connect()
        pending = yield from conn.send_request(FakeRequest())
        try:
            yield from conn.await_response(pending, ttfb_timeout=0.5)
        except ResponseTimeout:
            pass
        conn.client_close()

    sim.process(client())
    sim.run(until=30.0)
    # Some response bytes crossed the link even though the client left.
    assert duplex.down.bytes_sent > 0


def test_kernel_memory_freed_on_close():
    sim, machine, listener, duplex = make_testbed()
    serve_one(sim, listener, response_bytes=1000, close_after=True)

    def client():
        conn = Connection(sim, duplex, listener)
        yield from conn.connect()
        pending = yield from conn.send_request(FakeRequest())
        yield from conn.await_response(pending)
        conn.client_close()

    sim.process(client())
    sim.run(until=5.0)
    assert machine.memory.used_bytes == 0
