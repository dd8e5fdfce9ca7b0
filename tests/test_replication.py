"""Adaptive (CI-half-width) replication over the executor and the store."""

from __future__ import annotations

import math

import pytest

from repro.core import (
    UP_GIGABIT,
    PointSpec,
    ReplicatedPoint,
    ReplicationPolicy,
    RunStore,
    ServerSpec,
    WorkloadSpec,
    replicated_table,
    run_replicated,
)


def _spec(clients=20):
    return PointSpec(
        server=ServerSpec.nio(1),
        workload=WorkloadSpec(clients=clients, duration=1.0, warmup=1.0),
        machine=UP_GIGABIT.machine,
        network=UP_GIGABIT.network,
        seed=42,
    )


def test_policy_validation():
    with pytest.raises(ValueError):
        ReplicationPolicy(min_replicates=1)
    with pytest.raises(ValueError):
        ReplicationPolicy(min_replicates=5, max_replicates=3)
    with pytest.raises(ValueError):
        ReplicationPolicy(rel_halfwidth=0.0)


def test_halfwidth_math_matches_hand_computation():
    point = ReplicatedPoint(spec=_spec())

    class Fake:
        def __init__(self, rps):
            self.throughput_rps = rps

    point.replicates = [Fake(100.0), Fake(110.0), Fake(90.0)]
    assert point.mean_throughput == pytest.approx(100.0)
    assert point.stdev_throughput == pytest.approx(10.0)
    # Student-t 97.5% quantile at 2 degrees of freedom, not the normal
    # 1.96 (whose interval covers ~81% of means at three replicates).
    expected = 4.303 * 10.0 / math.sqrt(3)
    assert point.ci_halfwidth() == pytest.approx(expected)
    assert point.rel_halfwidth() == pytest.approx(expected / 100.0)


def test_single_replicate_halfwidth_is_infinite():
    point = ReplicatedPoint(spec=_spec())
    assert point.ci_halfwidth() == float("inf")
    assert point.rel_halfwidth() == float("inf")


def test_loose_target_stops_at_floor():
    policy = ReplicationPolicy(
        min_replicates=2, max_replicates=8, rel_halfwidth=10.0
    )
    [point] = run_replicated([_spec()], policy)
    assert point.n == 2
    assert point.converged
    # Replicates are genuinely different seeded runs.
    assert len(set(point.throughputs)) > 1


def test_impossible_target_stops_at_ceiling():
    policy = ReplicationPolicy(
        min_replicates=2, max_replicates=4, rel_halfwidth=1e-12
    )
    [point] = run_replicated([_spec()], policy)
    assert point.n == 4
    assert not point.converged


def test_replicates_are_deterministic_and_seed_derived():
    policy = ReplicationPolicy(
        min_replicates=3, max_replicates=3, rel_halfwidth=10.0
    )
    [a] = run_replicated([_spec()], policy)
    [b] = run_replicated([_spec()], policy)
    assert a.replicates == b.replicates
    assert a.n == 3


def test_replication_composes_with_store(tmp_path):
    policy = ReplicationPolicy(
        min_replicates=2, max_replicates=2, rel_halfwidth=10.0
    )
    store = RunStore(str(tmp_path), fingerprint="fp")
    [cold] = run_replicated([_spec()], policy, store=store)
    assert store.stats()["puts"] == 2

    warm_store = RunStore(str(tmp_path), fingerprint="fp")
    [warm] = run_replicated([_spec()], policy, store=warm_store)
    assert warm.replicates == cold.replicates
    assert warm_store.stats() == {"hits": 2, "misses": 0, "puts": 0}


def test_point_hook_and_table():
    policy = ReplicationPolicy(
        min_replicates=2, max_replicates=2, rel_halfwidth=10.0
    )
    seen = []
    points = run_replicated(
        [_spec(10), _spec(20)], policy, point_hook=lambda p: seen.append(p)
    )
    assert [p.spec.workload.clients for p in seen] == [10, 20]
    table = replicated_table(points, title="t")
    assert "±ci95" in table and "reps" in table
    assert table.count("\n") >= 4
