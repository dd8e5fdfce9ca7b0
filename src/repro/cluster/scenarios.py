"""Canned cluster configurations and the three hostile-traffic scenarios.

Builders here are thin sugar over the spec layer, shared by the tests,
the ``cluster`` CLI subcommand and the ``extension_cluster_scaling``
figure.  The machines are deliberately under-provisioned (fractional
``cpu_speed``) so the paper's 60-6000 client range drives the replica
tier from under-load to saturation — balancer-policy differences only
show once at least one replica is the bottleneck.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.params import ServerSpec, WorkloadSpec
from ..osmodel.machine import MachineSpec
from .spec import (
    BalancerSpec,
    CacheSpec,
    ClientClassSpec,
    ClusterPointSpec,
    ClusterSpec,
    FlashCrowdSpec,
    ReplicaSpec,
    RollingRestartSpec,
)

__all__ = [
    "replica",
    "uniform_cluster",
    "straggler_cluster",
    "flash_point",
    "slowloris_point",
    "restart_point",
]


def replica(
    rid: str,
    server: Optional[ServerSpec] = None,
    cpu_speed: float = 0.35,
    memory_gb: float = 1.0,
) -> ReplicaSpec:
    """One replica on an under-provisioned single-CPU machine."""
    return ReplicaSpec(
        rid=rid,
        server=server if server is not None else ServerSpec.nio(),
        machine=MachineSpec(
            cpus=1,
            cpu_speed=cpu_speed,
            memory_bytes=int(memory_gb * 1024**3),
        ),
    )


def uniform_cluster(
    n: int = 3,
    server: Optional[ServerSpec] = None,
    policy: str = "round_robin",
    cpu_speed: float = 0.35,
    cache: Optional[CacheSpec] = None,
    classes: Optional[Tuple[ClientClassSpec, ...]] = None,
) -> ClusterSpec:
    """``n`` identical replicas behind the named policy."""
    kwargs = {}
    if classes is not None:
        kwargs["classes"] = classes
    return ClusterSpec(
        replicas=tuple(
            replica(f"r{i}", server=server, cpu_speed=cpu_speed)
            for i in range(n)
        ),
        balancer=BalancerSpec(policy=policy),
        cache=cache,
        **kwargs,
    )


def straggler_cluster(
    policy: str = "round_robin",
    server: Optional[ServerSpec] = None,
    cpu_speed: float = 0.35,
    straggler_factor: float = 0.5,
    cache: Optional[CacheSpec] = None,
) -> ClusterSpec:
    """Three replicas, the last at ``straggler_factor`` of the speed.

    The heterogeneous mix that separates least-connections from round
    robin: rr keeps feeding the slow box its full 1/3 share, lc steers
    load to wherever connections drain fastest.
    """
    return ClusterSpec(
        replicas=(
            replica("r0", server=server, cpu_speed=cpu_speed),
            replica("r1", server=server, cpu_speed=cpu_speed),
            replica(
                "r2", server=server, cpu_speed=cpu_speed * straggler_factor
            ),
        ),
        balancer=BalancerSpec(policy=policy),
        cache=cache,
    )


def _workload(
    clients: int, duration: float, warmup: float
) -> WorkloadSpec:
    return WorkloadSpec(clients=clients, duration=duration, warmup=warmup)


def flash_point(
    cluster: ClusterSpec,
    clients: int,
    surge_clients: int,
    duration: float = 10.0,
    warmup: float = 16.0,
    seed: int = 42,
    surge_at: Optional[float] = None,
    decay: float = 2.0,
) -> ClusterPointSpec:
    """Flash crowd: the surge lands just after the window opens."""
    at = surge_at if surge_at is not None else warmup + duration * 0.2
    return ClusterPointSpec(
        cluster=cluster,
        workload=_workload(clients, duration, warmup),
        seed=seed,
        flash=FlashCrowdSpec(
            at=at, surge_clients=surge_clients, decay=decay
        ),
    )


def slowloris_point(
    cluster: ClusterSpec,
    clients: int,
    attack_weight: float = 0.5,
    duration: float = 10.0,
    warmup: float = 16.0,
    seed: int = 42,
) -> ClusterPointSpec:
    """Mix a slowloris class into the population at ``attack_weight``.

    The legit class keeps weight 1.0, so ``attack_weight=0.5`` means one
    third of the population is hostile.
    """
    import dataclasses

    classes = tuple(c for c in cluster.classes if not c.adversary) + (
        ClientClassSpec(
            "attack", weight=attack_weight, adversary="slowloris"
        ),
    )
    return ClusterPointSpec(
        cluster=dataclasses.replace(cluster, classes=classes),
        workload=_workload(clients, duration, warmup),
        seed=seed,
    )


def restart_point(
    cluster: ClusterSpec,
    clients: int,
    rid: Optional[str] = None,
    duration: float = 10.0,
    warmup: float = 16.0,
    seed: int = 42,
    warm_s: float = 3.0,
) -> ClusterPointSpec:
    """Rolling restart of one replica across the measurement window.

    Drain at 20% of the window, down at 40%, back (warming) at 60% — the
    whole cycle is observed by the measured interval.
    """
    rid = rid if rid is not None else cluster.replicas[0].rid
    return ClusterPointSpec(
        cluster=cluster,
        workload=_workload(clients, duration, warmup),
        seed=seed,
        restart=RollingRestartSpec(
            rid=rid,
            drain_at=warmup + duration * 0.2,
            down_at=warmup + duration * 0.4,
            up_at=warmup + duration * 0.6,
            warm_s=warm_s,
        ),
    )
