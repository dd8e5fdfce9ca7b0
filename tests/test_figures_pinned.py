"""Pin what every sweep-backed figure plots, without simulating.

``sweep_clients`` (where :class:`FigureRunner` looks it up) and
``repro.cluster.sweep_cluster`` are replaced by fakes whose points are
derived from a hash of the sweep's canonical key, so each figure's
series are a fingerprint of its configurations.  Two digests are pinned
on the quick profile: the ``to_dict()`` output of every generator (ids,
titles, axis labels, series labels and order, metric getters, notes),
and the ordered canonical keys of the sweeps the generators request
(server, scenario, client counts, measurement window and seed).
"""

import hashlib
import json

import pytest

import repro.cluster
from repro.core import PROFILES, FigureRunner, SweepResult
from repro.core import figures as figures_module
from repro.core.store import canonical
from repro.metrics import RunMetrics

GENERATORS = (
    "figure_1",
    "figure_2",
    "figure_3",
    "figure_4",
    "figure_5",
    "figure_6",
    "figure_7",
    "figure_8",
    "figure_9",
    "figure_10",
    "ablation_thread_overhead",
    "ablation_idle_timeout",
    "ablation_selector_strategy",
    "ablation_dynamic_pool",
    "extension_bandwidth_usage",
    "extension_staged_smp",
    "extension_overload_control",
    "extension_latency_breakdown",
    "extension_cluster_scaling",
)

FIGURES_SHA256 = (
    "7ad061f83a6b4c172d4ce1756f36692f020a5ec252efd6c5c6f69e89f02913ab"
)
SWEEP_KEYS_SHA256 = (
    "f8d2c629d2196923d16a8e9170b95c8224579b65e87c8f38d4da064853e79eaf"
)


def _sha256(payload) -> str:
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _fake_point(key: str, clients: int, duration: float) -> RunMetrics:
    digest = hashlib.sha512(f"{key}|{clients}".encode("utf-8")).digest()
    u = [
        int.from_bytes(digest[i:i + 4], "big") / 2**32
        for i in range(0, 64, 4)
    ]
    return RunMetrics(
        clients=clients, duration=duration, replies=int(u[0] * 1e5),
        throughput_rps=u[0] * 1e4, response_time_mean=u[1],
        response_time_p50=u[2], response_time_p90=u[3],
        response_time_p99=u[4], ttfb_mean=u[5],
        connection_time_mean=u[6], connection_time_p99=u[7],
        client_timeout_rate=u[8] * 10, connection_reset_rate=u[9] * 10,
        errors={}, bandwidth_mbytes_per_s=u[10] * 40,
        cpu_utilization=u[11], sessions_completed=int(u[12] * 1e4),
        connections_established=int(u[13] * 1e4), reply_rate_cov=u[14],
        server_stats={
            "obs_queue_share": u[15],
            "obs_service_share": 1.0 - u[15],
        },
    )


@pytest.fixture
def requested(monkeypatch):
    """Swap in the fake sweeps; return the canonical keys they receive."""
    keys = []

    def fake(spec, label, scenario, clients, duration, warmup, seed):
        key = json.dumps(
            canonical((spec, list(clients), duration, warmup, seed)),
            sort_keys=True,
        )
        keys.append(key)
        points = [_fake_point(key, c, duration) for c in clients]
        return SweepResult(label=label, scenario=scenario, points=points)

    def fake_sweep_clients(server, scenario, client_counts, duration,
                           warmup, seed, **_):
        return fake((server, scenario), server.label, scenario.name,
                    client_counts, duration, warmup, seed)

    def fake_sweep_cluster(cluster, client_counts, duration, warmup, seed,
                           flash=None, **_):
        return fake((cluster, flash), cluster.label, "cluster",
                    client_counts, duration, warmup, seed)

    monkeypatch.setattr(figures_module, "sweep_clients", fake_sweep_clients)
    monkeypatch.setattr(repro.cluster, "sweep_cluster", fake_sweep_cluster)
    return keys


def test_every_sweep_figure_is_pinned(requested):
    runner = FigureRunner(profile=PROFILES["quick"])
    figures = runner.run_figures(GENERATORS)
    assert list(figures) == list(GENERATORS)
    payload = {
        name: [fig.to_dict() for fig in figs]
        for name, figs in figures.items()
    }
    assert len(set(requested)) == len(requested) == 37
    assert _sha256(requested) == SWEEP_KEYS_SHA256
    assert _sha256(payload) == FIGURES_SHA256


def test_unknown_generator_is_rejected():
    with pytest.raises(ValueError, match="figure_11"):
        FigureRunner().figure("figure_11")
