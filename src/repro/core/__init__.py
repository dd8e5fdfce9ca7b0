"""Evaluation core: experiments, sweeps, scenarios, figures, comparisons."""

from .compare import (
    best_configuration,
    find_crossover,
    peak_throughput,
    plateau_throughput,
    relative_peak,
    scaling_factor,
)
from .experiment import Experiment, build_server
from .figures import PAPER_FIGURES, FigureData, FigureRunner, Series
from .params import (
    BEST_HTTPD,
    BEST_NIO_SMP,
    BEST_NIO_UP,
    HTTPD_SMP_POOLS,
    HTTPD_UP_POOLS,
    NIO_SMP_WORKERS,
    NIO_UP_WORKERS,
    PAPER_CLIENT_RANGE,
    ServerSpec,
    WorkloadSpec,
)
from .replication import (
    ReplicatedPoint,
    ReplicationPolicy,
    replicated_table,
    run_replicated,
)
from .runner import PointSpec, resolve_jobs, run_point, run_points
from .store import RunStore, code_fingerprint, spec_digest
from .scenarios import (
    MILLION_UP,
    OVERLOAD_UP,
    PROFILES,
    SCALE_CLIENT_RANGE,
    SMP_GIGABIT,
    UP_DUAL_FAST_ETHERNET,
    UP_FAST_ETHERNET,
    UP_GIGABIT,
    MeasurementProfile,
    Scenario,
)
from .sweep import SweepResult, sweep_clients

__all__ = [
    "best_configuration",
    "find_crossover",
    "peak_throughput",
    "plateau_throughput",
    "relative_peak",
    "scaling_factor",
    "Experiment",
    "build_server",
    "PAPER_FIGURES",
    "FigureData",
    "FigureRunner",
    "Series",
    "BEST_HTTPD",
    "BEST_NIO_SMP",
    "BEST_NIO_UP",
    "HTTPD_SMP_POOLS",
    "HTTPD_UP_POOLS",
    "NIO_SMP_WORKERS",
    "NIO_UP_WORKERS",
    "PAPER_CLIENT_RANGE",
    "ServerSpec",
    "WorkloadSpec",
    "MILLION_UP",
    "OVERLOAD_UP",
    "PROFILES",
    "SCALE_CLIENT_RANGE",
    "SMP_GIGABIT",
    "UP_DUAL_FAST_ETHERNET",
    "UP_FAST_ETHERNET",
    "UP_GIGABIT",
    "MeasurementProfile",
    "Scenario",
    "SweepResult",
    "sweep_clients",
    "PointSpec",
    "resolve_jobs",
    "run_point",
    "run_points",
    "RunStore",
    "spec_digest",
    "code_fingerprint",
    "ReplicationPolicy",
    "ReplicatedPoint",
    "run_replicated",
    "replicated_table",
]
