"""Tests for session-log record and replay (httperf --wsesslog analogue)."""

import numpy as np
import pytest

from repro.http import FilePopulation
from repro.workload import SurgeWorkload
from repro.workload.sessionlog import ReplayWorkload, SessionLog


@pytest.fixture()
def workload():
    rng = np.random.default_rng(3)
    return SurgeWorkload(FilePopulation(rng, n_files=100))


def test_generate_fixed_number_of_sessions(workload):
    log = SessionLog.generate(workload, 25, np.random.default_rng(1))
    assert len(log) == 25
    assert log.total_requests == sum(p.total_requests for p in log.sessions)


def test_generate_validates(workload):
    with pytest.raises(ValueError):
        SessionLog.generate(workload, 0, np.random.default_rng(1))


def test_roundtrip_json(tmp_path, workload):
    log = SessionLog.generate(workload, 10, np.random.default_rng(2))
    path = tmp_path / "sessions.json"
    log.save(path)
    loaded = SessionLog.load(path)
    assert len(loaded) == len(log)
    assert loaded.total_requests == log.total_requests
    for a, b in zip(loaded.sessions, log.sessions):
        assert a.think_times == b.think_times
        assert a.inter_session_gap == b.inter_session_gap
        assert [r.path for g in a.groups for r in g] == [
            r.path for g in b.groups for r in g
        ]
        assert [r.response_bytes for g in a.groups for r in g] == [
            r.response_bytes for g in b.groups for r in g
        ]


def test_version_check(workload):
    log = SessionLog.generate(workload, 2, np.random.default_rng(4))
    data = log.to_dict()
    data["version"] = 99
    with pytest.raises(ValueError):
        SessionLog.from_dict(data)


def test_replay_cycles_through_log(workload):
    log = SessionLog.generate(workload, 3, np.random.default_rng(5))
    replay = ReplayWorkload(log)
    rng = np.random.default_rng(6)
    seen = [replay.sample_session(rng) for _ in range(6)]
    # Cyclic: sessions repeat with period len(log).
    assert seen[0] is seen[3]
    assert seen[1] is seen[4]
    assert seen[2] is seen[5]


def test_replay_per_stream_offsets(workload):
    log = SessionLog.generate(workload, 10, np.random.default_rng(7))
    replay = ReplayWorkload(log)
    rng_a = np.random.default_rng(8)
    rng_b = np.random.default_rng(9)
    a0 = replay.sample_session(rng_a)
    b0 = replay.sample_session(rng_b)
    # Distinct streams get their own cursor (usually different offsets).
    a1 = replay.sample_session(rng_a)
    assert a1 is log.sessions[(log.sessions.index(a0) + 1) % len(log)]
    assert b0 in log.sessions


def test_replay_keeps_a_cursor_per_stream_handle(workload):
    """Handles of one RandomStreams draw through one shared Generator,
    yet each walks the log from its own offset."""
    from repro.sim import RandomStreams

    log = SessionLog.generate(workload, 10, np.random.default_rng(7))
    replay = ReplayWorkload(log)
    streams = RandomStreams(8)
    handles = [streams.spawn("client", i) for i in range(3)]
    walks = [[] for _ in handles]
    for _ in range(4):
        for handle, walk in zip(handles, walks):
            with handle as rng:
                walk.append(log.sessions.index(replay.sample_session(rng)))
    for i, walk in enumerate(walks):
        with RandomStreams(8).spawn("client", i) as rng:
            start = int(rng.integers(len(log)))
        assert walk == [(start + k) % len(log) for k in range(4)]


def test_replay_rejects_empty_log():
    with pytest.raises(ValueError):
        ReplayWorkload(SessionLog([]))


def test_replay_drives_emulated_clients_identically(workload):
    """Two servers measured under a replayed log see identical requests."""
    from repro.metrics import MetricsHub
    from repro.net import EOF, ListenSocket
    from repro.net.link import DuplexLink
    from repro.osmodel import Machine, MachineSpec
    from repro.sim import RandomStreams, Simulator
    from repro.workload import EmulatedClient

    log = SessionLog.generate(workload, 5, np.random.default_rng(11))

    def run_once():
        sim = Simulator()
        machine = Machine(sim, MachineSpec())
        listener = ListenSocket(sim, machine)
        duplex = DuplexLink(sim, 1e7, 0.0002)
        metrics = MetricsHub(sim, warmup=0.0, duration=60.0)

        def handle(conn):
            while True:
                req = yield from conn.server_recv()
                if req is EOF:
                    conn.server_close()
                    return
                yield from conn.wait_writable(req.response_bytes)
                conn.server_send_chunk(req.response_bytes, last=True)

        def acceptor():
            while True:
                conn = yield from listener.accept()
                sim.process(handle(conn))

        sim.process(acceptor())
        client = EmulatedClient(
            sim, 0, listener, duplex, ReplayWorkload(log), metrics,
            RandomStreams(12).spawn("client", 0),
        )
        sim.process(client.run())
        sim.run(until=50.0)
        return metrics.replies, metrics.bytes_received

    first = run_once()
    second = run_once()
    assert first == second
    assert first[0] > 0
