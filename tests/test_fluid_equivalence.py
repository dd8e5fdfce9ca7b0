"""Equivalence pinning for the fluid client population.

The fluid generator's license to exist (DESIGN.md §13) mirrors the
timing wheel's: it must change the *cost* of the client population, not
the results.  Two regimes, two contracts:

* **pinned** (population fits the boundary budget): byte-identical
  RunMetrics rows against the discrete generator — same streams, same
  offsets, same link rotation — across architectures, scenarios and the
  production and reference kernels;
* **aggregate** (population exceeds the budget): statistical agreement
  on saturated testbeds, pinned to explicit tolerances.  Saturation is
  part of the contract — the budget must exceed the server's useful
  concurrency for the marginal aggregated client's fate to match the
  discrete model's (see the budget contract in repro/workload/fluid.py).
  One aggregate run is also pinned whole, by digest.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core.experiment import Experiment
from repro.core.params import ServerSpec, WorkloadSpec
from repro.core.scenarios import OVERLOAD_UP, UP_FAST_ETHERNET
from repro.net.topology import NetworkSpec
from repro.osmodel.machine import MachineSpec
from repro.workload.fluid import FluidConfig

#: Architecture x scenario grid, mirroring test_wheel_equivalence.py.
GRID = [
    ("httpd-up-1g", ServerSpec.httpd(64), MachineSpec(cpus=1), "gigabit"),
    ("httpd-smp-100m", ServerSpec.httpd(64), MachineSpec(cpus=4),
     "fast_ethernet"),
    ("nio-up-1g", ServerSpec.nio(1), MachineSpec(cpus=1), "gigabit"),
    ("nio-smp-100m", ServerSpec.nio(1), MachineSpec(cpus=4),
     "fast_ethernet"),
]


def _row(spec, machine, network, clients=96, fluid=None, seed=7,
         duration=3.0, warmup=1.5):
    metrics = Experiment(
        server=spec,
        workload=WorkloadSpec(
            clients=clients, duration=duration, warmup=warmup, fluid=fluid
        ),
        machine=machine,
        network=network if isinstance(network, NetworkSpec)
        else getattr(NetworkSpec, network)(),
        seed=seed,
    ).run()
    return metrics


# -- pinned regime: byte identity --------------------------------------------

@pytest.mark.parametrize(
    "label,spec,machine,network", GRID, ids=[g[0] for g in GRID]
)
def test_pinned_fluid_rows_identical_to_discrete(
    label, spec, machine, network
):
    discrete = _row(spec, machine, network).row()
    fluid = _row(spec, machine, network, fluid=FluidConfig()).row()
    assert fluid == discrete
    assert discrete["replies/s"] > 0  # not vacuously equal


def test_pinned_regime_ignores_the_budget_value():
    """96 clients under budget=4096 and budget=None are the same pin."""
    spec, machine = ServerSpec.nio(1), MachineSpec(cpus=1)
    capped = _row(spec, machine, "gigabit", fluid=FluidConfig()).row()
    uncapped = _row(
        spec, machine, "gigabit", fluid=FluidConfig(budget=None)
    ).row()
    assert capped == uncapped


def test_pinned_fluid_is_wheel_invariant(reference_oracle):
    """The pinned fluid population composes with the reference kernel:
    the discrete and the pinned fluid run each match their reference
    twin in full, and their rows match each other."""
    spec, machine = ServerSpec.httpd(64), MachineSpec(cpus=1)
    discrete, fluid = reference_oracle(
        lambda: [
            _row(spec, machine, "gigabit"),
            _row(spec, machine, "gigabit", fluid=FluidConfig()),
        ]
    )
    assert fluid.row() == discrete.row()
    assert discrete.replies > 0


# -- aggregate regime: tolerance-pinned agreement on saturated testbeds ------

#: Relative tolerances for the aggregate-vs-discrete comparison.  The
#: throughput-class metrics agree to within ~8% on saturated testbeds
#: (measured: 5.9-7.3% for replies/s, <11% for MB/s and cpu%); response
#: time is structurally inflated in aggregate mode — materialized slots
#: run sessions back-to-back where discrete clients idle between
#: arrivals — so it is bounded, not matched (DESIGN.md §13).
THROUGHPUT_RTOL = 0.12
BYTES_RTOL = 0.15
CPU_RTOL = 0.15
RESP_FACTOR = 10.0

SATURATED = [
    ("overload-nio", ServerSpec.nio(1), OVERLOAD_UP),
    ("overload-httpd", ServerSpec.httpd(512), OVERLOAD_UP),
    ("100m-nio", ServerSpec.nio(1), UP_FAST_ETHERNET),
    ("100m-httpd", ServerSpec.httpd(512), UP_FAST_ETHERNET),
]


@pytest.mark.parametrize(
    "label,spec,scenario", SATURATED, ids=[s[0] for s in SATURATED]
)
def test_aggregate_matches_discrete_within_tolerance(label, spec, scenario):
    kwargs = dict(clients=600, duration=4.0, warmup=6.0)
    discrete = _row(
        spec, scenario.machine, scenario.network, **kwargs
    ).row()
    fluid = _row(
        spec, scenario.machine, scenario.network,
        fluid=FluidConfig(budget=512), **kwargs
    ).row()
    assert discrete["replies/s"] > 0

    def rel(key):
        return abs(fluid[key] - discrete[key]) / discrete[key]

    assert rel("replies/s") <= THROUGHPUT_RTOL, (fluid, discrete)
    assert rel("MB/s") <= BYTES_RTOL, (fluid, discrete)
    assert rel("cpu%") <= CPU_RTOL, (fluid, discrete)
    assert (
        discrete["resp_ms"] / RESP_FACTOR
        <= fluid["resp_ms"]
        <= discrete["resp_ms"] * RESP_FACTOR
    ), (fluid, discrete)


# -- aggregate regime: one pinned run -----------------------------------------

def _metrics_digest(metrics):
    """First 16 hex digits of the whole RunMetrics' sha256, hashed as
    ``benchmarks/e2e/probe.py`` hashes a row: every field but
    ``tombstones_compacted``, sorted keys, compact separators, numpy
    scalars as Python numbers."""
    body = dataclasses.asdict(metrics)
    body["server_stats"].pop("tombstones_compacted", None)
    blob = json.dumps(
        body, sort_keys=True, separators=(",", ":"),
        default=lambda value: value.item(),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def test_aggregate_regime_run_is_pinned():
    """A 20k-client population over a 256-session budget on a small
    backlog: every aggregate path runs (ramp bins, materialisation, SYN
    floods, the abandon ladder, gap re-entry), and the whole RunMetrics
    is pinned, so a change to the ``fluid[all]`` stream, the bin width
    or the cohort order moves the digest."""
    metrics = Experiment(
        server=ServerSpec("httpd", 16, backlog=32),
        workload=WorkloadSpec(
            clients=20_000, duration=6.0, warmup=6.0,
            fluid=FluidConfig(budget=256),
        ),
        machine=OVERLOAD_UP.machine,
        seed=7,
    ).run()
    stats = metrics.server_stats
    assert stats["fluid.aggregate"] == 1
    assert stats["fluid.sessions_materialized"] == 513
    assert stats["fluid.flood_syn_drops"] == 3342
    assert stats["fluid.sessions_abandoned"] == 12847
    assert stats["fluid.pool_peak"] == 210
    assert _metrics_digest(metrics) == "09996301b3d70845"
