"""Discrete-event simulation substrate (kernel, store, RNG streams)."""

from .core import (
    Event,
    Process,
    SimulationError,
    Simulator,
    TimedWait,
    Timeout,
)
from .resources import Store, StoreFull
from .rng import RandomStreams
from .wheel import TimingWheel

__all__ = [
    "Event",
    "Process",
    "SimulationError",
    "Simulator",
    "TimedWait",
    "Timeout",
    "TimingWheel",
    "Store",
    "StoreFull",
    "RandomStreams",
]
