#!/usr/bin/env python
"""Validate the simulator against queueing theory, with replication.

A simulation study is only as credible as its validation. This example
runs the nio server on a scaled-down machine (so it saturates quickly)
and checks the measurements against results that must hold for any
correctly-bookkept system:

* the **utilization law** U = X·S/C,
* the **bandwidth law** MB/s = X·E[transfer],
* the M/G/1-PS **capacity** prediction C/S against the measured plateau,
* the closed-system **knee** N* = C(Z+S)/S against where throughput bends,

then replicates one point across seeds to show confidence intervals.

Usage::

    python examples/validation_and_replication.py
"""

from repro.analysis import (
    ServiceEstimate,
    capacity_replies_per_s,
    knee_client_count,
    validate_run,
)
from repro.core import (
    PointSpec,
    ReplicationPolicy,
    ServerSpec,
    WorkloadSpec,
    replicated_table,
    run_replicated,
)
from repro.http import FilePopulation
from repro.http.messages import DEFAULT_RESPONSE_HEAD_BYTES
from repro.net import NetworkSpec
from repro.osmodel import CostModel, MachineSpec
from repro.sim import RandomStreams
from repro.workload import SurgeConfig

CPU_SPEED = 0.05  # 5% of the calibrated CPU: saturates at ~150 replies/s


def point(clients: int) -> PointSpec:
    return PointSpec(
        server=ServerSpec.nio(1),
        workload=WorkloadSpec(
            clients=clients, duration=12.0, warmup=16.0, n_files=200
        ),
        machine=MachineSpec(cpus=1, cpu_speed=CPU_SPEED),
        network=NetworkSpec.gigabit(),
    )


def main() -> None:
    costs = CostModel().scaled(1.0 / CPU_SPEED).scaled(1.05)  # machine + JVM
    population = FilePopulation(RandomStreams(42).stream("files"), n_files=200)
    mean_transfer = population.mean_transfer_size() + DEFAULT_RESPONSE_HEAD_BYTES
    service = ServiceEstimate.for_event_driven(costs, 16_000)

    print("analytic predictions:")
    print(f"  service demand     S  = {service.cpu_seconds * 1e3:.2f} ms")
    print(f"  capacity         C/S  = {capacity_replies_per_s(service):.0f} replies/s")
    think = SurgeConfig().think_distribution().mean()
    knee = knee_client_count(service, think)
    print(f"  saturation knee   N*  ~ {knee:.0f} clients (Z={think:.2f}s)\n")

    for clients in (40, 120, 320):
        metrics = point(clients).experiment().run()
        print(
            f"clients={clients:4d}: X={metrics.throughput_rps:7.1f} r/s "
            f"U={metrics.cpu_utilization * 100:5.1f}% "
            f"R={metrics.response_time_mean * 1e3:8.2f} ms"
        )
        for check in validate_run(metrics, service, 1.0, mean_transfer):
            print(f"    {check}")
    print()

    policy = ReplicationPolicy(min_replicates=4, max_replicates=4)
    points = run_replicated([point(120)], policy=policy)
    print(replicated_table(points, title="replication across 4 seeds"))


if __name__ == "__main__":
    main()
