"""The end-to-end benchmark's workloads.

Each workload is one experiment a researcher would run to get a row, built
from the public ``repro`` API for a given seed.  All four drive closed-loop
httperf session populations: each emulated client waits for its reply,
then thinks.  ``cluster-flash-lc`` adds an open-loop surge on a fixed
schedule.  Why each one is here is in ``why`` (and README.md).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict

from repro import Experiment, ServerSpec, WorkloadSpec
from repro.cluster import ClusterExperiment, FlashCrowdSpec, straggler_cluster
from repro.core.scenarios import MILLION_UP, UP_GIGABIT
from repro.workload.fluid import FluidConfig

__all__ = ["Workload", "WORKLOADS", "SMOKE", "resolve"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: seed -> an experiment whose ``run()`` returns the row.
    build: Callable[[int], object]


def _up_nio(seed: int) -> Experiment:
    return Experiment(
        server=ServerSpec.nio(1),
        workload=WorkloadSpec(clients=2400),
        machine=UP_GIGABIT.machine,
        network=UP_GIGABIT.network,
        seed=seed,
    )


def _up_httpd(seed: int) -> Experiment:
    return Experiment(
        server=ServerSpec.httpd(4096),
        workload=WorkloadSpec(clients=6000),
        machine=UP_GIGABIT.machine,
        network=UP_GIGABIT.network,
        seed=seed,
    )


def _cluster_flash(seed: int) -> ClusterExperiment:
    cluster = straggler_cluster(
        policy="least_connections", cpu_speed=0.12, straggler_factor=0.3
    )
    return ClusterExperiment(
        cluster=dataclasses.replace(cluster, observe=True),
        workload=WorkloadSpec(clients=1200, duration=8.0, warmup=16.0),
        seed=seed,
        flash=FlashCrowdSpec(at=18.0, surge_clients=600, decay=1.5),
    )


def _million_fluid(seed: int) -> Experiment:
    return Experiment(
        server=ServerSpec.nio(1),
        workload=WorkloadSpec(
            clients=1_000_000, duration=10.0, warmup=6.0, fluid=FluidConfig()
        ),
        machine=MILLION_UP.machine,
        network=MILLION_UP.network,
        seed=seed,
    )


def _smoke(seed: int) -> Experiment:
    return Experiment(
        server=ServerSpec.nio(1),
        workload=WorkloadSpec(clients=100, duration=2.0, warmup=1.0),
        seed=seed,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "up-nio-2400",
            "nio-1w on UP-1G at 2400 clients: the paper's best UP server; every "
            "SYN accepted, so the success path of net, workload and servers",
            _up_nio,
        ),
        Workload(
            "up-httpd-6000",
            "httpd-4096 on UP-1G at 6000 clients: thread-per-connection at peak "
            "load; SYN drops, client timeouts and cancel-heavy wheel timers",
            _up_httpd,
        ),
        Workload(
            "cluster-flash-lc",
            "least-connections straggler cluster with observe on and an "
            "open-loop flash crowd: the only workload where cluster and obs work",
            _cluster_flash,
        ),
        Workload(
            "million-fluid",
            "nio-1w with 1M fluid clients (budget 4096): the aggregate regime, "
            "where memory and per-event cost decide feasibility",
            _million_fluid,
        ),
    )
}

#: A sub-second run for the harness's own tests; not part of BENCHMARK.json.
SMOKE = Workload("smoke", "harness self-test", _smoke)


def resolve(name: str) -> Workload:
    if name == SMOKE.name:
        return SMOKE
    try:
        return WORKLOADS[name]
    except KeyError:
        known = ", ".join([*WORKLOADS, SMOKE.name])
        raise ValueError(f"unknown workload {name!r}; expected one of: {known}") from None
