"""The parallel sweep runner must be indistinguishable from serial runs.

The acceptance bar (see DESIGN.md): ``jobs=4`` produces RunMetrics
*identical* — field for field — to ``jobs=1``, for multiple server
architectures and scenarios, and ``point_hook`` fires in point order even
when points complete out of order in the pool.
"""

from __future__ import annotations

import pytest

from repro.core import (
    SMP_GIGABIT,
    UP_GIGABIT,
    PointSpec,
    ServerSpec,
    WorkloadSpec,
    resolve_jobs,
    run_point,
    run_points,
    sweep_clients,
)

# Tiny but non-trivial workloads: enough traffic that throughput,
# latency and error counters are all non-zero at the upper point.
CLIENTS = [30, 120]
DURATION = 1.5
WARMUP = 1.5


def _sweep(server, scenario, jobs):
    return sweep_clients(
        server, scenario, CLIENTS,
        duration=DURATION, warmup=WARMUP, jobs=jobs,
    )


@pytest.mark.parametrize("scenario", [UP_GIGABIT, SMP_GIGABIT],
                         ids=lambda s: s.name)
@pytest.mark.parametrize("server", [ServerSpec.nio(1), ServerSpec.httpd(64)],
                         ids=lambda s: s.label)
def test_parallel_identical_to_serial(server, scenario):
    serial = _sweep(server, scenario, jobs=1)
    parallel = _sweep(server, scenario, jobs=4)
    # RunMetrics is a frozen dataclass: == compares every field,
    # including throughput, latency means and server_stats dicts.
    assert parallel.points == serial.points
    assert parallel.label == serial.label
    assert parallel.scenario == serial.scenario


def test_point_hook_fires_in_point_order():
    order = []
    result = sweep_clients(
        ServerSpec.nio(1), UP_GIGABIT, [15, 60, 120, 240],
        duration=1.0, warmup=1.0, jobs=4,
        point_hook=lambda m: order.append(m.clients),
    )
    assert order == [15, 60, 120, 240]
    assert [p.clients for p in result.points] == order


def test_run_points_matches_run_point():
    spec = PointSpec(
        server=ServerSpec.nio(1),
        workload=WorkloadSpec(clients=30, duration=1.0, warmup=1.0),
        machine=UP_GIGABIT.machine,
        network=UP_GIGABIT.network,
    )
    direct = run_point(spec)
    [pooled] = run_points([spec], jobs=4)  # single point stays in-process
    assert pooled == direct


def test_resolve_jobs_policy():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(-2) == 1
    import os
    assert resolve_jobs(0) == (os.cpu_count() or 1)
