"""Workload substrate: SURGE distributions and httperf clients."""

from .distributions import BoundedPareto, Distribution, Geometric
from .fluid import FluidConfig, FluidLoadGenerator
from .httperf import EmulatedClient, HttperfConfig, LoadGenerator
from .surge import (
    SessionPlan,
    SurgeConfig,
    SurgeWorkload,
    workload_cache_stats,
)

__all__ = [
    "BoundedPareto",
    "Distribution",
    "Geometric",
    "EmulatedClient",
    "FluidConfig",
    "FluidLoadGenerator",
    "HttperfConfig",
    "LoadGenerator",
    "SessionPlan",
    "SurgeConfig",
    "SurgeWorkload",
    "workload_cache_stats",
]
