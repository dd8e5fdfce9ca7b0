"""Discrete-event simulation substrate (kernel, resources, RNG streams)."""

from .core import (
    Event,
    Interrupted,
    Process,
    SimulationError,
    Simulator,
    TimedWait,
    Timeout,
    Timer,
)
from .resources import Resource, Store, StoreFull
from .rng import RandomStreams
from .wheel import TimingWheel

__all__ = [
    "Event",
    "Interrupted",
    "Process",
    "SimulationError",
    "Simulator",
    "TimedWait",
    "Timeout",
    "Timer",
    "TimingWheel",
    "Resource",
    "Store",
    "StoreFull",
    "RandomStreams",
]

from .trace import CONN, ERROR, HTTP, SERVER, TraceEvent, Tracer

__all__ += ["CONN", "ERROR", "HTTP", "SERVER", "TraceEvent", "Tracer"]
