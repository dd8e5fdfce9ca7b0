"""Integration tests for the cluster experiment (repro.cluster.experiment).

Pins the determinism contract: byte-identical replay for a seed,
replica-order invariance (streams key off ``(seed, rid)``, the spec
normalises order), serial == parallel through ``run_points``, warm store
reads identical to cold execution, and the aggregate response-time
histogram equal to the exact merge of the per-replica histograms.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster import (
    CacheSpec,
    ClusterExperiment,
    ClusterPointSpec,
    ClusterSpec,
    replica,
    straggler_cluster,
    sweep_cluster,
    uniform_cluster,
)
from repro.core import RunStore, WorkloadSpec, spec_digest
from repro.core.store import canonical, metrics_to_dict


def _workload(clients=16, duration=3.0, warmup=2.0):
    return WorkloadSpec(clients=clients, duration=duration, warmup=warmup)


def _experiment(cluster=None, **kwargs):
    return ClusterExperiment(
        cluster=cluster or uniform_cluster(n=2, cpu_speed=0.3),
        workload=_workload(),
        seed=7,
        **kwargs,
    )


# -- route streams ------------------------------------------------------------

@pytest.mark.parametrize(
    "policy,draws_keys",
    [("least_connections", False), ("consistent_hash", True)],
)
def test_only_key_drawing_policies_derive_route_streams(
    derived_streams, policy, draws_keys
):
    """Each client holds a ``route[i]`` handle, but a key-less policy
    never enters it, so its PCG64 state is never derived."""
    _experiment(uniform_cluster(n=2, cpu_speed=0.3, policy=policy)).run()
    names = derived_streams
    assert any(name.startswith("cluster-client[") for name in names)
    routes = [name for name in names if name.startswith("route[")]
    assert bool(routes) is draws_keys


# -- determinism --------------------------------------------------------------

def test_run_twice_is_byte_identical():
    first = metrics_to_dict(_experiment().run())
    second = metrics_to_dict(_experiment().run())
    assert first == second


def test_replica_order_does_not_matter():
    # Same replicas, listed in opposite orders: the specs are *equal*
    # (ClusterSpec normalises to rid order) and the runs produce
    # identical per-replica rows, because every replica stream derives
    # from (seed, rid), never from list position.
    fwd = ClusterSpec(replicas=(replica("r0"), replica("r1", cpu_speed=0.2)))
    rev = ClusterSpec(replicas=(replica("r1", cpu_speed=0.2), replica("r0")))
    assert fwd == rev
    assert [r.rid for r in fwd.replicas] == ["r0", "r1"]

    a = ClusterExperiment(cluster=fwd, workload=_workload(), seed=7)
    b = ClusterExperiment(cluster=rev, workload=_workload(), seed=7)
    a.run()
    b.run()
    rows_a = {rid: metrics_to_dict(m) for rid, m in a.replica_metrics.items()}
    rows_b = {rid: metrics_to_dict(m) for rid, m in b.replica_metrics.items()}
    assert rows_a == rows_b


def test_reordered_specs_share_a_store_key():
    fwd = ClusterSpec(replicas=(replica("r0"), replica("r1", cpu_speed=0.2)))
    rev = ClusterSpec(replicas=(replica("r1", cpu_speed=0.2), replica("r0")))
    pf = ClusterPointSpec(cluster=fwd, workload=_workload(), seed=7)
    pr = ClusterPointSpec(cluster=rev, workload=_workload(), seed=7)
    assert canonical(pf) == canonical(pr)
    assert spec_digest(pf, "fp") == spec_digest(pr, "fp")


def test_digest_distinguishes_scenarios():
    from repro.cluster import FlashCrowdSpec, RollingRestartSpec

    cluster = uniform_cluster(n=2)
    steady = ClusterPointSpec(cluster=cluster, workload=_workload(), seed=7)
    flash = ClusterPointSpec(
        cluster=cluster, workload=_workload(), seed=7,
        flash=FlashCrowdSpec(at=3.0, surge_clients=10),
    )
    restart = ClusterPointSpec(
        cluster=cluster, workload=_workload(), seed=7,
        restart=RollingRestartSpec(
            rid="r0", drain_at=2.5, down_at=3.0, up_at=3.5, warm_s=1.0
        ),
    )
    digests = {spec_digest(p, "fp") for p in (steady, flash, restart)}
    assert len(digests) == 3
    assert steady.provenance()["scenario"] == "cluster"
    assert flash.provenance()["scenario"] == "cluster-flash"
    assert restart.provenance()["scenario"] == "cluster-restart"


# -- run_points integration ---------------------------------------------------

def test_parallel_sweep_matches_serial():
    cluster = uniform_cluster(n=2, cpu_speed=0.3)
    kwargs = dict(duration=3.0, warmup=2.0, seed=7)
    serial = sweep_cluster(cluster, [8, 16], jobs=1, **kwargs)
    fanned = sweep_cluster(cluster, [8, 16], jobs=2, **kwargs)
    assert [metrics_to_dict(p) for p in serial.points] == [
        metrics_to_dict(p) for p in fanned.points
    ]
    assert serial.scenario == "cluster"
    assert serial.label == cluster.label


def test_store_warm_read_matches_cold_run(tmp_path):
    store = RunStore(str(tmp_path / "store"))
    cluster = uniform_cluster(n=2, cpu_speed=0.3)
    kwargs = dict(duration=3.0, warmup=2.0, seed=7, store=store)
    cold = sweep_cluster(cluster, [10], **kwargs)
    assert store.puts == 1 and store.hits == 0
    warm = sweep_cluster(cluster, [10], **kwargs)
    assert store.hits == 1
    assert metrics_to_dict(cold.points[0]) == metrics_to_dict(warm.points[0])


# -- satellite: surfaced counters --------------------------------------------

def test_kernel_and_shed_counters_surface_in_aggregate():
    metrics = _experiment().run()
    stats = metrics.server_stats
    assert stats["replicas"] == 2
    assert stats["tombstones_compacted"] >= 0
    # requests_shed survives both per replica and summed cluster-wide.
    assert "replica.r0.requests_shed" in stats
    assert "replica.r1.requests_shed" in stats
    assert stats["requests_shed"] == (
        stats["replica.r0.requests_shed"] + stats["replica.r1.requests_shed"]
    )
    assert stats["requests_served"] == (
        stats["replica.r0.requests_served"]
        + stats["replica.r1.requests_served"]
    )
    assert stats["lb.policy"] == "round_robin"
    assert stats["lb.routed_unavailable"] == 0
    assert "wan.wan.bytes_down" in stats


def test_cache_tier_serves_hits_without_replicas():
    cache_spec = CacheSpec(capacity_bytes=32 * 1024 * 1024)
    exp = _experiment(
        cluster=uniform_cluster(n=2, cpu_speed=0.3, cache=cache_spec)
    )
    metrics = exp.run()
    stats = metrics.server_stats
    assert stats["cache.hits"] > 0
    assert stats["cache.hit_rate"] > 0.0
    # Replica replies + cache replies make up the aggregate.
    replica_replies = (
        stats["replica.r0.replies"] + stats["replica.r1.replies"]
    )
    assert metrics.replies == replica_replies + stats["cache.replies"]


def test_cached_sessions_open_no_connection():
    """A client connects only for a group with a request for a server.

    Twenty files fit the cache, so once warm-up has filled it every
    request is a hit and no session opens a connection.
    """
    cache_spec = CacheSpec(capacity_bytes=64 * 1024 * 1024)
    exp = ClusterExperiment(
        cluster=uniform_cluster(n=2, cpu_speed=0.3, cache=cache_spec),
        workload=WorkloadSpec(
            clients=16, duration=4.0, warmup=6.0, n_files=20
        ),
        seed=7,
    )
    metrics = exp.run()
    assert metrics.replies == 72
    assert metrics.server_stats["cache.replies"] == metrics.replies
    assert metrics.connections_established == 0


# -- known defect: per-replica attribution -------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason="every client shares one FanoutMetrics, so a reply is credited "
    "to the replica any client routed to last",
)
def test_replica_rows_credit_the_serving_replica():
    """Each replica's row counts the replies its own connections carried.

    The tracer registers every connection's replica when it is routed,
    so its in-window traces per replica are the oracle.
    """
    cluster = dataclasses.replace(
        straggler_cluster(policy="least_connections"), observe=True
    )
    workload = WorkloadSpec(clients=30, duration=3.0, warmup=1.5)
    exp = ClusterExperiment(cluster=cluster, workload=workload, seed=7)
    metrics = exp.run()
    tracer = exp.telemetry.tracer
    assert tracer.dropped == 0
    end = workload.warmup + workload.duration
    served = {rid: 0 for rid in exp.replica_metrics}
    for trace in tracer.traces:
        if trace.rid in served and workload.warmup <= trace.t_done < end:
            served[trace.rid] += 1
    assert sum(served.values()) == metrics.replies
    credited = {rid: row.replies for rid, row in exp.replica_metrics.items()}
    assert credited == served
