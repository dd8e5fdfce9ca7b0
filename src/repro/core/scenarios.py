"""Named testbed scenarios and measurement profiles.

Scenarios bind a machine configuration to a network configuration, giving
the four environments of the paper's evaluation:

========  ==========  ============================
name      processors  client links
========  ==========  ============================
UP-1G     1           1 Gbit/s        (CPU-bounded)
UP-100M   1           100 Mbit/s      (bandwidth-bounded)
UP-200M   1           2 x 100 Mbit/s  (bandwidth-bounded)
SMP-1G    4           1 Gbit/s
========  ==========  ============================

Measurement profiles trade figure fidelity for wall-clock; pick one from
:data:`PROFILES` by name (``quick``/``standard``/``full``/``scale``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..net.topology import NetworkSpec
from ..osmodel.machine import MachineSpec
from .params import PAPER_CLIENT_RANGE

__all__ = [
    "Scenario",
    "UP_GIGABIT",
    "UP_FAST_ETHERNET",
    "UP_DUAL_FAST_ETHERNET",
    "SMP_GIGABIT",
    "OVERLOAD_UP",
    "MILLION_UP",
    "SCALE_CLIENT_RANGE",
    "MeasurementProfile",
    "PROFILES",
]


@dataclass(frozen=True)
class Scenario:
    """One machine + network environment."""

    name: str
    machine: MachineSpec
    network: NetworkSpec


UP_GIGABIT = Scenario("UP-1G", MachineSpec(cpus=1), NetworkSpec.gigabit())
UP_FAST_ETHERNET = Scenario(
    "UP-100M", MachineSpec(cpus=1), NetworkSpec.fast_ethernet()
)
UP_DUAL_FAST_ETHERNET = Scenario(
    "UP-200M", MachineSpec(cpus=1), NetworkSpec.dual_fast_ethernet()
)
SMP_GIGABIT = Scenario("SMP-1G", MachineSpec(cpus=4), NetworkSpec.gigabit())

#: Overload testbed: a deliberately under-provisioned SUT (quarter-speed
#: CPU, half the memory) that saturates well inside the paper's client
#: range, so benchmarks reach the retrograde region — where shedding
#: policies matter — at a fraction of the sweep cost.
OVERLOAD_UP = Scenario(
    "UP-overload",
    MachineSpec(cpus=1, cpu_speed=0.25, memory_bytes=1024**3),
    NetworkSpec.gigabit(),
)

#: Million-client scale testbed: the paper's UP-1G environment driven far
#: past the discrete generator's practical range by an aggregated fluid
#: client population (``WorkloadSpec.fluid``).  The environment itself is
#: UP_GIGABIT; the distinct name marks sweeps whose client counts are
#: session *populations*, not concurrent httperf processes.
MILLION_UP = Scenario(
    "MILLION-UP", MachineSpec(cpus=1), NetworkSpec.gigabit()
)

#: The scale sweep: 100k to 1M client sessions on one modelled CPU.
SCALE_CLIENT_RANGE: Tuple[int, ...] = (
    100_000, 250_000, 500_000, 1_000_000,
)


@dataclass(frozen=True)
class MeasurementProfile:
    """Sweep granularity and per-point measurement window."""

    name: str
    clients: Tuple[int, ...]
    duration: float
    warmup: float

    @property
    def points(self) -> int:
        return len(self.clients)


PROFILES: Dict[str, MeasurementProfile] = {
    # Quick: coarse sweep, short window.  Warmup stays past the 15 s idle
    # timeout so connection-reset dynamics are in steady state.
    "quick": MeasurementProfile(
        "quick", (60, 1200, 2400, 3600, 4800, 6000), duration=8.0, warmup=16.0
    ),
    # Standard: the paper's full client range.
    "standard": MeasurementProfile(
        "standard", PAPER_CLIENT_RANGE, duration=12.0, warmup=16.0
    ),
    # Full: long windows for tight error-rate estimates.
    "full": MeasurementProfile(
        "full", PAPER_CLIENT_RANGE, duration=30.0, warmup=20.0
    ),
    # Scale: the fluid-population sweep (pair with WorkloadSpec.fluid or
    # --fluid).  The window must outlast the 10 s client-timeout
    # abandon ladder, or overflow abandonments land past the end of the
    # run and timeout/s under-reports.
    "scale": MeasurementProfile(
        "scale", SCALE_CLIENT_RANGE, duration=10.0, warmup=6.0
    ),
}
