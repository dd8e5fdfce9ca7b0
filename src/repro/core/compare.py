"""Cross-configuration analysis: plateaus, crossovers, scaling factors.

These are the quantities the paper's prose claims are made of ("nio with
one worker matches httpd with 4096 threads", "SMP doubles UP throughput",
"nio advances httpd once bandwidth saturates"), extracted programmatically
so EXPERIMENTS.md and the regression tests can check them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .sweep import SweepResult

__all__ = [
    "plateau_throughput",
    "scaling_factor",
    "find_crossover",
    "best_configuration",
]


def plateau_throughput(sweep: SweepResult, top_k: int = 3) -> float:
    """Mean of the top-k points — a noise-robust 'capacity' estimate."""
    tops = sorted(sweep.throughputs, reverse=True)[:top_k]
    return sum(tops) / len(tops) if tops else 0.0


def scaling_factor(up: SweepResult, smp: SweepResult) -> float:
    """SMP/UP capacity ratio (the paper's ~2x from 1 to 4 CPUs)."""
    base = plateau_throughput(up)
    return plateau_throughput(smp) / base if base > 0 else 0.0


def find_crossover(
    xs: Sequence[float], ys_a: Sequence[float], ys_b: Sequence[float]
) -> Optional[float]:
    """First x where series A *overtakes* series B (linear interpolation).

    An overtake requires A to have been strictly behind at some sampled
    point and strictly ahead at a later one; ties (A == B, common in the
    underloaded region where both servers serve everything) are not
    crossings.  Returns ``None`` if A never overtakes B in range.
    """
    if not (len(xs) == len(ys_a) == len(ys_b)):
        raise ValueError("series length mismatch")
    diffs = [a - b for a, b in zip(ys_a, ys_b)]
    behind: Optional[int] = None
    for i, d in enumerate(diffs):
        if d < 0:
            behind = i
        elif d > 0 and behind is not None:
            d0, d1 = diffs[behind], d
            frac = -d0 / (d1 - d0)
            return xs[behind] + frac * (xs[i] - xs[behind])
    return None


def best_configuration(
    sweeps: List[SweepResult],
) -> Tuple[SweepResult, List[Tuple[str, float]]]:
    """Pick the sweep with the highest plateau capacity.

    Returns ``(winner, ranking)`` where ranking lists (label, capacity)
    best-first — the procedure the paper applies in sections 4.1/5.1.
    """
    if not sweeps:
        raise ValueError("no sweeps to compare")
    ranking = sorted(
        ((s.label, plateau_throughput(s)) for s in sweeps),
        key=lambda kv: kv[1],
        reverse=True,
    )
    winner = max(sweeps, key=plateau_throughput)
    return winner, ranking
