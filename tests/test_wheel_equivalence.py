"""Determinism pinning: the timing wheel must not change any result.

The wheel's whole license to exist is that it stages timers in front of
the dispatch heap without perturbing ``(time, seq)`` order (DESIGN.md
§9).  These tests run complete experiments — client workload, TCP model,
server architecture, metrics pipeline — twice, with the wheel enabled
and with ``REPRO_NO_WHEEL=1``, and require the *entire* RunMetrics row
to be identical, not approximately equal.  Any divergence means a timer
fired in a different order between the modes.
"""

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


def _run(spec, machine, network, monkeypatch, no_wheel):
    if no_wheel:
        monkeypatch.setenv("REPRO_NO_WHEEL", "1")
    else:
        monkeypatch.delenv("REPRO_NO_WHEEL", raising=False)
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
    label, spec, machine, network, monkeypatch
):
    wheel_row = _run(spec, machine, network, monkeypatch, no_wheel=False)
    heap_row = _run(spec, machine, network, monkeypatch, no_wheel=True)
    assert wheel_row == heap_row
    # And the run did something: a row of zeros would pass vacuously.
    assert wheel_row["replies/s"] > 0 or wheel_row["clients"] > 0
