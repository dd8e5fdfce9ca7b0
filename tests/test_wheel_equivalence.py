"""Determinism pinning: the timing wheel must not change any result.

The wheel's whole license to exist is that it stages timers in front of
the dispatch heap without perturbing ``(time, seq)`` order (DESIGN.md
§9).  These tests run complete experiments — client workload, TCP model,
server architecture, metrics pipeline — twice, with the wheel enabled
and on the heap-only reference kernel (the ``heap_only`` fixture), and
require the *entire* RunMetrics row to be identical, not approximately
equal.  Any divergence means a timer fired in a different order between
the modes.
"""

import hashlib
import json

import pytest

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
    metrics = Experiment(
        server=spec,
        workload=WorkloadSpec(clients=96, duration=3.0, warmup=1.5),
        machine=machine,
        network=getattr(NetworkSpec, network)(),
        seed=7,
    ).run()
    return metrics.row()


@pytest.mark.parametrize(
    "label,spec,machine,network",
    GRID,
    ids=[g[0] for g in GRID],
)
def test_run_metrics_identical_with_and_without_wheel(
    label, spec, machine, network, heap_only
):
    wheel_row = _run(spec, machine, network)
    with heap_only():
        heap_row = _run(spec, machine, network)
    assert wheel_row == heap_row
    # And the run did something: a row of zeros would pass vacuously.
    assert wheel_row["replies/s"] > 0 or wheel_row["clients"] > 0


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
    label, spec, digest, heap_only
):
    def row():
        return Experiment(
            server=spec,
            workload=WorkloadSpec(clients=96, duration=4.0, warmup=2.0),
            seed=42,
        ).run().row()

    wheel_row = row()
    with heap_only():
        heap_row = row()
    assert _digest(wheel_row) == digest
    assert heap_row == wheel_row
