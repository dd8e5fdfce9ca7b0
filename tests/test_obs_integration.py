"""End-to-end observability: instrumented sim runs and live endpoints."""

import dataclasses
import time
from collections import Counter

import pytest

from repro.core import Scenario, ServerSpec, WorkloadSpec
from repro.core.experiment import Experiment
from repro.net import NetworkSpec
from repro.obs import Registry, SpanRecorder
from repro.osmodel import MachineSpec
from repro.overload import AdaptiveTimeout, CoDelShedder, OverloadControl
from repro.workload import SurgeConfig


def _run_observed(kind, threads, clients=60):
    scenario = Scenario("t", MachineSpec(cpus=1), NetworkSpec.gigabit())
    experiment = Experiment(
        server=ServerSpec(kind=kind, threads=threads, observe=True),
        workload=WorkloadSpec(clients=clients, duration=5.0, warmup=4.0),
        machine=scenario.machine,
        network=scenario.network,
        seed=7,
    )
    metrics = experiment.run()
    return experiment, metrics


@pytest.mark.parametrize(
    "kind,threads",
    [("nio", 1), ("httpd", 64), ("staged", 2), ("amped", 2)],
)
def test_observed_run_all_architectures(kind, threads):
    experiment, metrics = _run_observed(kind, threads)
    recorder, profiler = experiment.recorder, experiment.profiler

    # Spans were recorded and every one was terminated.
    assert len(recorder) > 0
    assert all(s.status is not None for s in recorder.spans)
    assert metrics.throughput_rps > 0

    # The breakdown made it into the run's server stats.
    stats = metrics.server_stats
    for key in ("obs_queue_wait_s", "obs_service_s",
                "obs_queue_share", "obs_service_share"):
        assert key in stats
    assert stats["obs_queue_share"] + stats["obs_service_share"] == (
        pytest.approx(1.0, abs=1e-4)
    )
    assert stats["obs_service_s"] > 0.0

    # The profiler attributed CPU to parse + service at least, and the
    # attribution cannot exceed wall-clock x CPUs for the whole run
    # (warmup + measurement + drain all charge the same CPUs).
    assert profiler.cpu_seconds["parse"] > 0.0
    assert profiler.cpu_seconds["service"] > 0.0
    assert 0.0 < profiler.attributed < 60.0 * experiment.machine.cpus


def test_observe_disabled_by_default():
    scenario = Scenario("t", MachineSpec(cpus=1), NetworkSpec.gigabit())
    experiment = Experiment(
        server=ServerSpec(kind="nio", threads=1),
        workload=WorkloadSpec(clients=30, duration=4.0, warmup=3.0),
        machine=scenario.machine,
        network=scenario.network,
    )
    metrics = experiment.run()
    assert experiment.recorder is None
    assert experiment.profiler is None
    assert "obs_queue_share" not in metrics.server_stats


def test_observed_run_is_deterministic():
    _, a = _run_observed("httpd", 32, clients=50)
    _, b = _run_observed("httpd", 32, clients=50)
    assert a.server_stats["obs_queue_wait_s"] == (
        b.server_stats["obs_queue_wait_s"]
    )
    assert a.server_stats["obs_service_s"] == b.server_stats["obs_service_s"]


def test_profiler_select_phase_only_on_event_driven():
    exp_nio, _ = _run_observed("nio", 1)
    exp_httpd, _ = _run_observed("httpd", 64)
    assert exp_nio.profiler.cpu_seconds.get("select", 0.0) > 0.0
    assert "select" not in exp_httpd.profiler.cpu_seconds


# ---------------------------------------------------------------------------
# connection events as span marks
# ---------------------------------------------------------------------------

#: Think times far past the 15 s idle reap: reaped keep-alive
#: connections, then resets when the client sends on one.
LONG_THINKS = WorkloadSpec(
    clients=10, duration=30.0, warmup=10.0, n_files=50,
    surge=SurgeConfig(think_k=20.0, think_max=25.0, groups_per_session=2.0),
)
SHORT = WorkloadSpec(clients=60, duration=5.0, warmup=4.0)


def _httpd_reaper():
    return ServerSpec("httpd", 16)


def _nio_reaper():
    return ServerSpec(
        "nio", 1,
        overload=OverloadControl(timeout=AdaptiveTimeout(base=5.0, floor=2.0)),
    )


def _small_backlog():
    return ServerSpec("httpd", 4, backlog=2)


def _codel_stale_cap():
    return ServerSpec(
        "httpd", 4,
        overload=OverloadControl(admission=CoDelShedder(stale_cap=0.5)),
    )


def _run(server, workload, machine=MachineSpec(cpus=1)):
    experiment = Experiment(
        server=server, workload=workload, machine=machine, seed=7
    )
    return experiment, experiment.run()


def _marked_spans(server, workload, machine=MachineSpec(cpus=1)):
    experiment, metrics = _run(
        dataclasses.replace(server, observe=True), workload, machine
    )
    recorder = experiment.recorder
    assert recorder.dropped == 0  # every span of the run is in the ring
    return list(recorder.spans), metrics.server_stats


def _mark_counts(spans):
    return Counter(name for span in spans for name, _ in span.events)


@pytest.mark.parametrize(
    "server", [_httpd_reaper, _nio_reaper], ids=["httpd-16", "nio-1-adaptive"]
)
def test_idle_reaps_are_span_marks(server):
    spans, stats = _marked_spans(server(), LONG_THINKS)
    assert _mark_counts(spans)["idle_reap"] == stats["idle_reaps"] > 0
    for span in spans:
        reaped = span.first("idle_reap")
        if reaped is not None:
            assert span.first("server_close") >= reaped
    # The paper's reset mechanism: the client sends on a reaped connection.
    assert any(
        span.status == "reset"
        and span.first("idle_reap") is not None
        and span.first("idle_reap") < span.t_end
        for span in spans
    )


@pytest.mark.parametrize(
    "server,workload,machine,expected",
    [
        (_small_backlog, SHORT, MachineSpec(cpus=1), {"syn_drop": "syns_dropped"}),
        (
            _codel_stale_cap,
            SHORT,
            MachineSpec(cpus=1),
            {"syn_shed": "requests_shed", "early_close": "early_closed"},
        ),
        # Kernel socket memory runs out before the backlog fills: every
        # drop is a MemoryExhausted one.
        (
            lambda: ServerSpec("nio", 1),
            WorkloadSpec(clients=400, duration=5.0, warmup=4.0),
            MachineSpec(cpus=1, memory_bytes=4 << 20),
            {"syn_drop": "syns_dropped"},
        ),
    ],
    ids=["backlog-2", "codel-stale-cap", "nio-1-socket-memory-4mib"],
)
def test_listener_drops_are_span_marks(server, workload, machine, expected):
    spans, stats = _marked_spans(server(), workload, machine)
    counts = _mark_counts(spans)
    for mark, key in expected.items():
        assert counts[mark] == stats[key] > 0
    for span in spans:
        closed_early = span.first("early_close")
        if closed_early is not None:
            assert span.first("server_close") == closed_early
            assert span.first("accept") is None


@pytest.mark.parametrize(
    "server,workload",
    [
        pytest.param(lambda: ServerSpec("nio", 1), SHORT, id="nio-1"),
        pytest.param(lambda: ServerSpec("httpd", 64), SHORT, id="httpd-64"),
        pytest.param(lambda: ServerSpec("staged", 2), SHORT, id="staged-2"),
        pytest.param(lambda: ServerSpec("amped", 2), SHORT, id="amped-2"),
        pytest.param(_httpd_reaper, LONG_THINKS, id="httpd-16-long-think"),
        pytest.param(_nio_reaper, LONG_THINKS, id="nio-1-adaptive-long-think"),
        pytest.param(_small_backlog, SHORT, id="httpd-4-backlog-2"),
        pytest.param(_codel_stale_cap, SHORT, id="httpd-4-codel"),
    ],
)
def test_observation_changes_no_result(server, workload):
    _, plain = _run(server(), workload)
    _, observed = _run(dataclasses.replace(server(), observe=True), workload)
    observed = dataclasses.asdict(observed)
    # Drop the server_stats keys that exist only because observation is on.
    observed["server_stats"] = {
        key: value
        for key, value in observed["server_stats"].items()
        if key != "spans_unfinished" and not key.startswith("obs_")
    }
    assert observed == dataclasses.asdict(plain)


# ---------------------------------------------------------------------------
# live servers
# ---------------------------------------------------------------------------

def _get(port, path="/-/metrics"):
    from tests.test_live import raw_request

    payload = (
        f"GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    ).encode()
    return raw_request(port, payload)


@pytest.mark.parametrize("which", ["event", "thread"])
def test_live_metrics_endpoint_and_spans(which):
    from repro.live import (
        AsyncioEventServer,
        DocRoot,
        ThreadPoolHttpServer,
    )

    docroot = DocRoot.synthetic(n_files=4)
    recorder = SpanRecorder(time.monotonic, capacity=64)
    if which == "event":
        server = AsyncioEventServer(docroot, recorder=recorder)
    else:
        server = ThreadPoolHttpServer(
            docroot, pool_size=2, recorder=recorder
        )
    server.start()
    try:
        # One real file request, then scrape the metrics endpoint.
        _get(server.port, docroot.paths()[0])
        deadline = time.time() + 5.0
        while server.requests_served < 1 and time.time() < deadline:
            time.sleep(0.01)
        response = _get(server.port)
        assert b"200 OK" in response
        body = response.partition(b"\r\n\r\n")[2].decode()
        assert "# TYPE repro_requests_served counter" in body
        assert "repro_connections_accepted" in body
        assert "# TYPE repro_request_latency histogram" in body
        assert 'repro_request_latency_bucket{le="+Inf"}' in body
    finally:
        server.stop()

    # Both closed connections produced finished wall-clock spans.
    deadline = time.time() + 5.0
    while len(recorder) < 2 and time.time() < deadline:
        time.sleep(0.01)
    assert len(recorder) >= 2
    span = recorder.spans[0]
    assert span.status in ("closed", "reset", "idle_reap")
    assert span.first("accept") is not None
    assert recorder.registry.hist_total("req_service") >= 0.0


def test_live_servers_share_registry_metric_surface():
    reg = Registry()
    reg.counter("requests_served").inc(5)
    text = reg.prometheus_text()
    assert "repro_requests_served 5" in text
