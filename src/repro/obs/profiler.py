"""Sim-side phase profiler: where do the server's CPU-seconds go?

Every simulated server charges CPU through ``cpu.execute(cost)`` at a
handful of well-known sites (accept, selector scan, parse, file service,
transmit, close, ...).  With a :class:`PhaseProfiler` mounted, each site
also attributes its cost to a named phase, so a run can answer the
question the paper's figures only imply: per architecture, how much CPU
went to parsing vs serving vs selector overhead vs scheduler loss.

Attribution happens at submission time (costs are deterministic), so the
profiler adds one dict update per burst and nothing to the event loop.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["PhaseProfiler"]


class PhaseProfiler:
    """Accumulates CPU-seconds per named phase."""

    def __init__(self) -> None:
        self.cpu_seconds: Dict[str, float] = {}

    def add(self, phase: str, cost: float) -> None:
        """Attribute ``cost`` CPU-seconds to ``phase``."""
        self.cpu_seconds[phase] = self.cpu_seconds.get(phase, 0.0) + cost

    def table(self) -> str:
        """Aligned plain-text phase table (CPU-seconds and share)."""
        phases = sorted(self.cpu_seconds.items())
        denom = sum(cost for _phase, cost in phases) or 1.0
        width = max((len(phase) for phase, _cost in phases), default=5)
        lines = [
            f"{phase.rjust(width)}  {cost * 1e3:10.3f} ms  "
            f"{100.0 * cost / denom:5.1f}%"
            for phase, cost in phases
        ]
        return "\n".join(lines) or "(no CPU attributed)"
