"""Variance-aware adaptive replication of sweep points.

Gunther's scalability methodology (PAPERS.md) needs many *statistically
controlled* throughput points: a fixed replication count either wastes
wall-clock on quiet points or under-samples noisy ones.  This layer runs
each sweep point at several seeds and stops early once the confidence
interval around the mean throughput is tight — a configurable relative
half-width — subject to a floor and ceiling on the replicate count.

Each replicate is an ordinary :class:`~repro.core.runner.PointSpec` with
a derived seed, so replication composes with everything underneath it:
replicates fan out over the executor pool and are content-addressed in
the :class:`~repro.core.store.RunStore` individually.  Re-running an
adaptive sweep is therefore free until the policy asks for a replicate
the store has never seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence

from ..metrics.report import RunMetrics, format_table
from .runner import PointSpec, run_points
from .store import RunStore

__all__ = [
    "ReplicationPolicy",
    "ReplicatedPoint",
    "run_replicated",
    "replicated_table",
]

#: Two-sided Student-t 97.5% quantiles for small sample sizes (df 1..30);
#: beyond 30 the normal approximation is used.  Hard-coded so that no
#: statistics package is needed.
_T975 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)


def _t975(df: int) -> float:
    if df < 1:
        raise ValueError("need at least two samples for a CI")
    return _T975[df - 1] if df <= len(_T975) else 1.96


@dataclass(frozen=True)
class ReplicationPolicy:
    """Early-stopping rule for per-point replication.

    Replication stops once ``t * s / (sqrt(n) * |mean|)`` — the relative
    half-width of the Student-t 95% confidence interval on the mean
    throughput, ``t`` the 97.5% quantile at ``n - 1`` degrees of
    freedom — drops to ``rel_halfwidth``, but never before
    ``min_replicates`` nor beyond ``max_replicates``.
    """

    min_replicates: int = 3
    max_replicates: int = 10
    #: Target relative CI half-width (0.05 = mean known to ±5%).
    rel_halfwidth: float = 0.05

    def __post_init__(self) -> None:
        if self.min_replicates < 2:
            raise ValueError("need at least 2 replicates to estimate spread")
        if self.max_replicates < self.min_replicates:
            raise ValueError("max_replicates must be >= min_replicates")
        if self.rel_halfwidth <= 0:
            raise ValueError("rel_halfwidth must be positive")


@dataclass
class ReplicatedPoint:
    """One sweep point measured at several seeds."""

    spec: PointSpec
    replicates: List[RunMetrics] = field(default_factory=list)
    #: Whether the CI target was met before the replicate ceiling.
    converged: bool = False

    @property
    def n(self) -> int:
        return len(self.replicates)

    @property
    def throughputs(self) -> List[float]:
        return [m.throughput_rps for m in self.replicates]

    @property
    def mean_throughput(self) -> float:
        values = self.throughputs
        return sum(values) / len(values) if values else 0.0

    @property
    def stdev_throughput(self) -> float:
        """Sample standard deviation (ddof=1); 0.0 below two replicates."""
        values = self.throughputs
        if len(values) < 2:
            return 0.0
        mean = self.mean_throughput
        return math.sqrt(
            sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        )

    def ci_halfwidth(self) -> float:
        """Absolute Student-t 95% CI half-width of the mean throughput."""
        if self.n < 2:
            return float("inf")
        return _t975(self.n - 1) * self.stdev_throughput / math.sqrt(self.n)

    def rel_halfwidth(self) -> float:
        """CI half-width relative to the mean (inf for a zero mean)."""
        mean = self.mean_throughput
        if mean == 0.0:
            return float("inf")
        return self.ci_halfwidth() / abs(mean)

    def row(self) -> dict:
        """Summary columns for the replicated-sweep table."""
        return {
            "clients": self.spec.workload.clients,
            "replies/s": round(self.mean_throughput, 1),
            "±ci95": round(self.ci_halfwidth(), 1),
            "rel": round(self.rel_halfwidth(), 4),
            "reps": self.n,
            "converged": "yes" if self.converged else "no",
        }


def _replicate_specs(spec: PointSpec, start: int, count: int) -> List[PointSpec]:
    """Replicates ``start .. start+count-1`` of ``spec`` (seed-derived)."""
    return [
        replace(spec, seed=spec.seed + k) for k in range(start, start + count)
    ]


def run_replicated(
    specs: Sequence[PointSpec],
    policy: Optional[ReplicationPolicy] = None,
    jobs: Optional[int] = None,
    store: Optional[RunStore] = None,
    point_hook: Optional[Callable[[ReplicatedPoint], None]] = None,
) -> List[ReplicatedPoint]:
    """Measure every point with adaptive replication.

    The first ``min_replicates`` seeds of each point run as one batch
    (so the floor still parallelises over the executor); further
    replicates are added one at a time until the CI target or the
    ceiling.  All replicate runs go through :func:`~repro.core.runner
    .run_points`, so ``jobs`` and ``store`` behave exactly as in a plain
    sweep — including resume.
    """
    policy = policy or ReplicationPolicy()
    out: List[ReplicatedPoint] = []
    for spec in specs:
        point = ReplicatedPoint(spec=spec)
        batch = _replicate_specs(spec, 0, policy.min_replicates)
        point.replicates.extend(run_points(batch, jobs=jobs, store=store))
        while True:
            if point.rel_halfwidth() <= policy.rel_halfwidth:
                point.converged = True
                break
            if point.n >= policy.max_replicates:
                break
            extra = _replicate_specs(spec, point.n, 1)
            point.replicates.extend(
                run_points(extra, jobs=jobs, store=store)
            )
        out.append(point)
        if point_hook is not None:
            point_hook(point)
    return out


def replicated_table(points: Sequence[ReplicatedPoint], title: str = "") -> str:
    """Plain-text summary table of an adaptively replicated sweep."""
    return format_table([p.row() for p in points], title=title)
