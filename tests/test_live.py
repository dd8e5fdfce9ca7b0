"""Integration tests for the live (real-socket) servers and load generator."""

import gc
import socket
import struct
import sys
import time
import warnings

import pytest

from repro.live import (
    AsyncioEventServer,
    DocRoot,
    ThreadPoolHttpServer,
    run_load,
)


@pytest.fixture(scope="module")
def docroot():
    return DocRoot.synthetic(n_files=12)


@pytest.fixture()
def event_server(docroot):
    server = AsyncioEventServer(docroot)
    server.start()
    yield server
    server.stop()


@pytest.fixture()
def thread_server(docroot):
    server = ThreadPoolHttpServer(docroot, pool_size=4, idle_timeout=15.0)
    server.start()
    yield server
    server.stop()


def raw_request(port, payload, read_bytes=65536, timeout=5.0):
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(payload)
        chunks = []
        while True:
            data = s.recv(read_bytes)
            if not data:
                break
            chunks.append(data)
            response = b"".join(chunks)
            if _complete(response):
                return response
        return b"".join(chunks)


def _complete(response: bytes) -> bool:
    if b"\r\n\r\n" not in response:
        return False
    head, _, rest = response.partition(b"\r\n\r\n")
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            return len(rest) >= int(line.split(b":")[1])
    return True


# ---------------------------------------------------------------------------
# docroot
# ---------------------------------------------------------------------------

def test_docroot_contents(docroot):
    assert len(docroot) == 12
    path = docroot.paths()[0]
    body = docroot.lookup(path)
    assert body is not None and len(body) > 0
    assert docroot.lookup("/nope") is None
    assert docroot.total_bytes == sum(
        len(docroot.lookup(p)) for p in docroot.paths()
    )


def test_docroot_write_to_disk(tmp_path, docroot):
    docroot.write_to_disk(tmp_path)
    path = docroot.paths()[0]
    on_disk = (tmp_path / path.lstrip("/")).read_bytes()
    assert on_disk == docroot.lookup(path)


# ---------------------------------------------------------------------------
# event server
# ---------------------------------------------------------------------------

def test_event_server_serves_file(event_server, docroot):
    path = docroot.paths()[0]
    resp = raw_request(
        event_server.port,
        f"GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n".encode(),
    )
    assert resp.startswith(b"HTTP/1.1 200 OK")
    body = resp.partition(b"\r\n\r\n")[2]
    assert body == docroot.lookup(path)


def test_event_server_404(event_server):
    resp = raw_request(
        event_server.port,
        b"GET /missing HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    )
    assert resp.startswith(b"HTTP/1.1 404")


def test_event_server_400_on_garbage(event_server):
    resp = raw_request(event_server.port, b"NONSENSE\r\n\r\n")
    assert resp.startswith(b"HTTP/1.1 400")


def test_event_server_keepalive_pipelining(event_server, docroot):
    p1, p2 = docroot.paths()[:2]
    payload = (
        f"GET {p1} HTTP/1.1\r\nHost: t\r\n\r\n"
        f"GET {p2} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    ).encode()
    with socket.create_connection(("127.0.0.1", event_server.port), 5.0) as s:
        s.sendall(payload)
        time.sleep(0.3)
        data = b""
        s.settimeout(2.0)
        try:
            while True:
                chunk = s.recv(65536)
                if not chunk:
                    break
                data += chunk
        except socket.timeout:
            pass
    assert data.count(b"HTTP/1.1 200 OK") == 2


# ---------------------------------------------------------------------------
# thread server
# ---------------------------------------------------------------------------

def test_thread_server_serves_file(thread_server, docroot):
    path = docroot.paths()[1]
    resp = raw_request(
        thread_server.port,
        f"GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n".encode(),
    )
    assert resp.startswith(b"HTTP/1.1 200 OK")
    assert resp.partition(b"\r\n\r\n")[2] == docroot.lookup(path)


def test_thread_server_idle_reap_resets_connection(docroot):
    server = ThreadPoolHttpServer(docroot, pool_size=2, idle_timeout=0.5)
    server.start()
    try:
        with socket.create_connection(("127.0.0.1", server.port), 5.0) as s:
            time.sleep(1.2)  # outlive the idle timeout
            # The server closed its end; we observe EOF (or a reset).
            s.settimeout(2.0)
            try:
                data = s.recv(1024)
                assert data == b""
            except ConnectionResetError:
                pass
        assert server.idle_reaps >= 1
    finally:
        server.stop()


class _ResetAfterGarbage:
    """A connection that delivers a malformed request, then resets."""

    def settimeout(self, timeout):
        pass

    def recv(self, size):
        return b"BOGUS\r\n\r\n"

    def sendall(self, data):
        raise ConnectionResetError("reset by peer")


def test_thread_server_survives_reset_while_rejecting_garbage(docroot):
    server = ThreadPoolHttpServer(docroot)  # never started: no socket
    server._serve_connection(_ResetAfterGarbage())  # returns, no raise


def test_thread_server_keeps_its_workers_after_garbage_and_resets(docroot):
    server = ThreadPoolHttpServer(docroot, pool_size=2, idle_timeout=5.0)
    server.start()
    try:
        for _ in range(20):
            with socket.create_connection(("127.0.0.1", server.port), 5.0) as s:
                # A zero linger makes close() send a reset, not a FIN.
                s.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
                s.sendall(b"BOGUS\r\n\r\n")
        path = docroot.paths()[0]
        resp = raw_request(
            server.port,
            f"GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n".encode(),
        )
        assert resp.startswith(b"HTTP/1.1 200 OK")
        assert all(t.is_alive() for t in server._threads)
    finally:
        server.stop()


def test_event_server_never_reaps_idle_connections(event_server):
    with socket.create_connection(("127.0.0.1", event_server.port), 5.0) as s:
        time.sleep(1.0)
        s.settimeout(0.3)
        with pytest.raises(socket.timeout):
            s.recv(1024)  # still open: no data, no EOF


# ---------------------------------------------------------------------------
# shutdown with a connection still open
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "make_server",
    [AsyncioEventServer, ThreadPoolHttpServer],
    ids=["event_server", "thread_server"],
)
def test_stop_closes_an_open_keepalive_connection(make_server, docroot):
    server = make_server(docroot)  # thread server: 15 s idle timeout
    server.start()
    path = docroot.paths()[0]
    try:
        with socket.create_connection(("127.0.0.1", server.port), 5.0) as s:
            s.sendall(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
            response = b""
            while not _complete(response):
                chunk = s.recv(65536)
                assert chunk, "server closed a keep-alive connection"
                response += chunk
            assert response.startswith(b"HTTP/1.1 200 OK")
            # The connection is kept alive and idle: the server's handler
            # is waiting for the next request.
            t0 = time.monotonic()
            server.stop()
            assert time.monotonic() - t0 < 1.0
            s.settimeout(1.0)
            assert s.recv(1024) == b""
    finally:
        server.stop()
    unraisable = []
    hook = sys.unraisablehook
    sys.unraisablehook = unraisable.append
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            gc.collect()
    finally:
        sys.unraisablehook = hook
    assert [str(w.message) for w in caught] == []
    assert [u.exc_value for u in unraisable] == []


# ---------------------------------------------------------------------------
# load generator against both servers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("server_fixture", ["event_server", "thread_server"])
def test_load_generator_measures(server_fixture, request, docroot):
    server = request.getfixturevalue(server_fixture)
    stats = run_load(
        "127.0.0.1",
        server.port,
        docroot.paths()[:6],
        clients=6,
        requests_per_client=8,
    )
    assert stats.errors == 0
    assert stats.replies == 48
    assert stats.throughput_rps > 10
    assert stats.mean_latency > 0
    assert stats.latency_percentile(99) >= stats.latency_percentile(50)
    assert server.requests_served >= 48


def test_load_generator_validates_paths(event_server):
    with pytest.raises(ValueError):
        run_load("127.0.0.1", event_server.port, [], clients=1)


def test_live_stats_error_buckets():
    from repro.live import LiveStats

    stats = LiveStats(
        duration=1.0,
        connect_timeouts=1,
        connect_errors=2,
        read_timeouts=3,
        resets=4,
        other_errors=5,
    )
    assert stats.errors == 15  # total spans every bucket
    # httperf's client-timo: timeouts in either phase, nothing else.
    assert stats.client_timeouts == 4


def test_load_generator_counts_connect_errors():
    # Nothing listens on this port: every client fails in the connect
    # phase and lands in connect_errors (refused), not in resets.
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
    stats = run_load(
        "127.0.0.1", free_port, ["/f0"], clients=3, requests_per_client=1
    )
    assert stats.connect_errors == 3
    assert stats.replies == 0
    assert stats.resets == 0
    assert stats.errors == 3
