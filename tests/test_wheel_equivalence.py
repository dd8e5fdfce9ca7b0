"""Determinism pinning: the kernel's fast paths must not change any result.

The same-instant lane, the free lists, the timing wheel and tombstone
compaction are licensed only because none of them perturbs the
``(time, seq)`` dispatch order (DESIGN.md §8-§9).  These tests run
complete experiments — client workload, TCP model, server architecture,
metrics pipeline — on the production kernel and again on the naive
reference kernel in ``tests/reference_kernel.py`` (one heap, no fast
paths; the ``reference_oracle`` fixture), and require the *entire*
RunMetrics to be identical and both kernels to have pushed the same
number of entries.  Any divergence means some entry was dispatched in a
different order, or at a different time, by one of the two kernels.
"""

import hashlib
import json

import pytest

from repro.cluster import ClusterExperiment, FlashCrowdSpec, straggler_cluster
from repro.core.experiment import Experiment
from repro.core.params import ServerSpec, WorkloadSpec
from repro.net.topology import NetworkSpec
from repro.osmodel.machine import MachineSpec

#: Architecture x scenario grid: the two servers with the heaviest and
#: lightest wheel traffic (httpd arms a reap timer per idle connection;
#: nio arms none of its own), each on a uniprocessor gigabit testbed and
#: a 4-way SMP fast-ethernet one (different event interleavings, link
#: congestion, and CPU timer churn).
GRID = [
    ("httpd-up-1g", ServerSpec.httpd(64), MachineSpec(cpus=1), "gigabit"),
    ("httpd-smp-100m", ServerSpec.httpd(64), MachineSpec(cpus=4),
     "fast_ethernet"),
    ("nio-up-1g", ServerSpec.nio(1), MachineSpec(cpus=1), "gigabit"),
    ("nio-smp-100m", ServerSpec.nio(1), MachineSpec(cpus=4),
     "fast_ethernet"),
]


def _run(spec, machine, network):
    return Experiment(
        server=spec,
        workload=WorkloadSpec(clients=96, duration=3.0, warmup=1.5),
        machine=machine,
        network=getattr(NetworkSpec, network)(),
        seed=7,
    ).run()


@pytest.mark.parametrize(
    "label,spec,machine,network",
    GRID,
    ids=[g[0] for g in GRID],
)
def test_run_metrics_identical_with_and_without_wheel(
    label, spec, machine, network, reference_oracle
):
    metrics = reference_oracle(lambda: _run(spec, machine, network))
    # And the run did something: a row of zeros would pass vacuously.
    assert metrics.replies > 0


#: One small run per server architecture on the default testbed (UP,
#: gigabit), with each row's pinned digest: the first 16 hex digits of
#: ``sha256(json.dumps(row, sort_keys=True))``.  Staged and amped are
#: covered only here.
ARCHITECTURES = [
    ("httpd-64", ServerSpec.httpd(64), "a7abbc22fc683e49"),
    ("nio-1", ServerSpec.nio(1), "fd328d716f820efc"),
    ("staged-1", ServerSpec.staged(1), "ff46c8c23fdef0a0"),
    ("amped-2", ServerSpec.amped(2), "e03e44b9fb91206f"),
]


def _digest(row):
    blob = json.dumps(row, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize(
    "label,spec,digest", ARCHITECTURES, ids=[a[0] for a in ARCHITECTURES]
)
def test_architecture_rows_pinned_on_wheel_and_heap(
    label, spec, digest, reference_oracle
):
    metrics = reference_oracle(
        lambda: Experiment(
            server=spec,
            workload=WorkloadSpec(clients=96, duration=4.0, warmup=2.0),
            seed=42,
        ).run()
    )
    assert _digest(metrics.row()) == digest


def test_cluster_run_identical_on_the_reference_kernel(reference_oracle):
    """One small cluster: three replicas on one kernel, a balancer, a
    flash crowd and observation on; the aggregate and every replica's
    RunMetrics must match."""

    def run():
        exp = ClusterExperiment(
            cluster=straggler_cluster(
                policy="least_connections", cpu_speed=0.12, straggler_factor=0.3
            ),
            workload=WorkloadSpec(clients=120, duration=2.0, warmup=2.0),
            seed=42,
            flash=FlashCrowdSpec(at=2.5, surge_clients=60, decay=1.0),
        )
        aggregate = exp.run()
        return [aggregate] + [m for _, m in sorted(exp.replica_metrics.items())]

    rows = reference_oracle(run)
    assert len(rows) == 4 and rows[0].replies > 0
