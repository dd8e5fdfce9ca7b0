"""Everything that crosses the process-pool boundary must pickle.

The parallel runner (``repro.core.runner``) ships :class:`PointSpec`
objects to workers and :class:`RunMetrics` back.  A spec transitively
drags along server/workload/machine/network dataclasses, any mounted
overload-control policies, and the metrics carry StatAccumulator-derived
numbers — so each of those is pinned here with an explicit round-trip.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import (
    UP_GIGABIT,
    Experiment,
    PointSpec,
    Scenario,
    ServerSpec,
    SweepResult,
    WorkloadSpec,
    run_point,
)
from repro.metrics.collectors import StatAccumulator
from repro.net import NetworkSpec
from repro.osmodel import MachineSpec
from repro.overload import LIFO, CoDelShedder, OverloadControl, TokenBucket


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


@pytest.mark.parametrize("spec", [
    ServerSpec.nio(2),
    ServerSpec.httpd(512, idle_timeout=7.5),
    ServerSpec.staged(2),
    ServerSpec.amped(3),
], ids=lambda s: s.label)
def test_server_spec_roundtrip(spec):
    assert roundtrip(spec) == spec


def test_server_spec_with_overload_roundtrip():
    import dataclasses

    control = OverloadControl(
        admission=TokenBucket(rate=500.0, burst=16.0),
        discipline=LIFO,
    )
    spec = dataclasses.replace(ServerSpec.httpd(128), overload=control)
    clone = roundtrip(spec)
    assert clone.overload is not spec.overload
    assert isinstance(clone.overload.admission, TokenBucket)
    assert clone.overload.discipline.front_insert
    assert clone.overload.tag == spec.overload.tag


def test_codel_shedder_roundtrip():
    control = OverloadControl(admission=CoDelShedder())
    clone = roundtrip(control)
    assert isinstance(clone.admission, CoDelShedder)


def test_workload_and_scenario_roundtrip():
    workload = WorkloadSpec(clients=120, duration=2.0, warmup=3.0)
    assert roundtrip(workload) == workload
    scenario = Scenario(
        "pickled", MachineSpec(cpus=4), NetworkSpec.fast_ethernet()
    )
    clone = roundtrip(scenario)
    assert clone.name == scenario.name
    assert clone.machine == scenario.machine
    assert clone.network == scenario.network


def test_point_spec_roundtrip_runs_identically():
    spec = PointSpec(
        server=ServerSpec.nio(1),
        workload=WorkloadSpec(clients=30, duration=1.0, warmup=1.0),
        machine=UP_GIGABIT.machine,
        network=UP_GIGABIT.network,
        seed=7,
    )
    clone = roundtrip(spec)
    # Same bytes in => same metrics out: the real pool-boundary property.
    assert run_point(clone) == run_point(spec)


def test_stat_accumulator_roundtrip_preserves_stats():
    acc = StatAccumulator()
    for i in range(1000):
        acc.add(i * 0.001)
    clone = roundtrip(acc)
    assert clone.count == acc.count
    assert clone.mean == acc.mean
    assert clone.percentile(99) == acc.percentile(99)
    # And it still accepts new samples afterwards.
    clone.add(1.0)
    assert clone.count == acc.count + 1


def test_run_metrics_and_sweep_result_roundtrip():
    metrics = Experiment(
        server=ServerSpec.nio(1),
        workload=WorkloadSpec(clients=30, duration=1.0, warmup=1.0),
    ).run()
    assert roundtrip(metrics) == metrics
    sweep = SweepResult(label="nio-1w", scenario="UP-1G", points=[metrics])
    clone = roundtrip(sweep)
    assert clone.points == sweep.points
    assert clone.label == sweep.label
