"""White-box tests of server internals: write paths, reentrancy, failure
injection (clients vanishing mid-response, memory exhaustion, huge files).
"""

import pytest

from repro.http import Request
from repro.http.messages import CHUNK_BYTES, DEFAULT_RESPONSE_HEAD_BYTES
from repro.net import Connection, ListenSocket
from repro.net.link import DuplexLink
from repro.osmodel import Machine, MachineSpec, MemoryExhausted
from repro.servers import EventDrivenServer, ThreadPoolServer
from repro.sim import Simulator


def make_stack(cpus=1, bandwidth=1e7, memory=2 * 1024**3, sndbuf=64 * 1024):
    sim = Simulator()
    machine = Machine(sim, MachineSpec(cpus=cpus, memory_bytes=memory))
    listener = ListenSocket(sim, machine)
    duplex = DuplexLink(sim, bandwidth, 0.0002)
    return sim, machine, listener, duplex


def client_fetch(sim, duplex, listener, requests, results, sndbuf=None):
    """Simple scripted client: fetch each request sequentially."""

    def proc():
        conn = Connection(sim, duplex, listener)
        if sndbuf is not None:
            conn.sndbuf = sndbuf
        yield from conn.connect()
        for request in requests:
            pending = yield from conn.send_request(request)
            done = yield from conn.await_response(
                pending, ttfb_timeout=50.0, stall_timeout=500.0
            )
            results.append((done, pending.bytes_received))
        conn.client_close()

    return sim.process(proc())


def test_event_server_serves_huge_file_in_chunks():
    sim, machine, listener, duplex = make_stack()
    server = EventDrivenServer(sim, machine, listener, workers=1)
    server.start()
    results = []
    big = Request(path="/big", response_bytes=1_000_000)
    client_fetch(sim, duplex, listener, [big], results)
    sim.run(until=30.0)
    assert len(results) == 1
    assert results[0][1] == big.response_bytes + DEFAULT_RESPONSE_HEAD_BYTES
    assert server.requests_served == 1


def test_event_server_multiworker_single_connection_ordering():
    sim, machine, listener, duplex = make_stack(cpus=4)
    server = EventDrivenServer(sim, machine, listener, workers=4)
    server.start()
    results = []
    reqs = [Request(path=f"/f{i}", response_bytes=50_000) for i in range(5)]

    def proc():
        conn = Connection(sim, duplex, listener)
        yield from conn.connect()
        pendings = []
        for request in reqs:
            p = yield from conn.send_request(request)
            pendings.append(p)
        for p in pendings:
            done = yield from conn.await_response(p, 50.0, 500.0)
            results.append((done, p.bytes_received))
        conn.client_close()

    sim.process(proc())
    sim.run(until=60.0)
    assert len(results) == 5
    # Responses completed in request order with correct byte counts.
    times = [t for t, _b in results]
    assert times == sorted(times)
    for (_t, nbytes), request in zip(results, reqs):
        assert nbytes == request.response_bytes + DEFAULT_RESPONSE_HEAD_BYTES


def test_event_server_handles_client_vanishing_mid_response():
    sim, machine, listener, duplex = make_stack(bandwidth=20_000.0)
    server = EventDrivenServer(sim, machine, listener, workers=1)
    server.start()

    def proc():
        conn = Connection(sim, duplex, listener)
        yield from conn.connect()
        yield from conn.send_request(Request(path="/big", response_bytes=500_000))
        yield sim.timeout(2.0)
        conn.client_close()  # abandon mid-transfer

    sim.process(proc())
    sim.run(until=120.0)
    # The server noticed and cleaned up: no channels left registered and
    # only the server's own thread stacks (acceptor + worker) remain.
    assert server.selector.registered_count == 0
    assert machine.memory.used_bytes == (
        2 * machine.threads.default_stack_bytes
    )


def test_thread_server_client_vanishing_mid_response():
    sim, machine, listener, duplex = make_stack(bandwidth=20_000.0)
    server = ThreadPoolServer(sim, machine, listener, pool_size=2)
    server.start()

    def proc():
        conn = Connection(sim, duplex, listener)
        yield from conn.connect()
        yield from conn.send_request(Request(path="/big", response_bytes=500_000))
        yield sim.timeout(2.0)
        conn.client_close()

    sim.process(proc())
    sim.run(until=120.0)
    # The worker freed itself and kernel memory for the socket is gone.
    assert machine.memory.used_bytes == server.pool_size * machine.threads.default_stack_bytes


def test_event_server_partial_writes_with_tiny_sndbuf():
    sim, machine, listener, duplex = make_stack()
    server = EventDrivenServer(sim, machine, listener, workers=1)
    server.start()
    results = []

    def proc():
        conn = Connection(sim, duplex, listener)
        conn.sndbuf = 4096  # tiny buffer: many EWOULDBLOCK round trips
        yield from conn.connect()
        p = yield from conn.send_request(Request(path="/f", response_bytes=100_000))
        yield from conn.await_response(p, 50.0, 500.0)
        results.append(p.bytes_received)
        conn.client_close()

    sim.process(proc())
    sim.run(until=60.0)
    assert results == [100_000 + DEFAULT_RESPONSE_HEAD_BYTES]


def test_thread_server_pool_memory_exhaustion_raises():
    sim, machine, listener, _duplex = make_stack(memory=8 * 1024 * 1024)
    server = ThreadPoolServer(sim, machine, listener, pool_size=6000)
    with pytest.raises(MemoryExhausted):
        server.start()
    # Roll-back: no stray threads or memory.
    assert machine.threads.live == 0
    assert machine.memory.used_bytes == 0


def test_event_server_respects_jvm_thread_limit():
    sim = Simulator()
    machine = Machine(sim, MachineSpec(max_threads=4))
    listener = ListenSocket(sim, machine)
    server = EventDrivenServer(sim, machine, listener, workers=8)
    from repro.osmodel import ThreadLimitExceeded

    with pytest.raises(ThreadLimitExceeded):
        server.start()


def test_server_start_twice_rejected():
    sim, machine, listener, _d = make_stack()
    server = EventDrivenServer(sim, machine, listener, workers=1)
    server.start()
    with pytest.raises(RuntimeError):
        server.start()


def test_thread_server_writes_in_default_chunks(monkeypatch):
    sizes = []
    send = Connection.server_send_chunk

    def recording(self, nbytes, last=False):
        sizes.append(nbytes)
        send(self, nbytes, last)

    monkeypatch.setattr(Connection, "server_send_chunk", recording)
    sim, machine, listener, duplex = make_stack()
    server = ThreadPoolServer(sim, machine, listener, pool_size=2)
    server.start()
    results = []
    client_fetch(
        sim, duplex, listener,
        [Request(path="/f", response_bytes=100_000)], results,
    )
    sim.run(until=30.0)
    wire = 100_000 + DEFAULT_RESPONSE_HEAD_BYTES
    assert results[0][1] == wire
    # Six full 16 KiB writes and the remainder: seven write(2) calls.
    assert sizes == [CHUNK_BYTES] * 6 + [wire - 6 * CHUNK_BYTES]


def test_stats_shape_consistency():
    sim, machine, listener, duplex = make_stack()
    for server in (
        EventDrivenServer(sim, machine, listener, workers=1),
        ThreadPoolServer(sim, machine, listener, pool_size=2),
    ):
        stats = server.stats()
        for key in ("requests_served", "connections_handled",
                    "threads_live", "syns_dropped", "memory_pressure"):
            assert key in stats
