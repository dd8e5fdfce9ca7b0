"""Steady-state detection.

MSER-based warm-up truncation, for validating that the default
measurement window starts in steady state.  Confidence intervals across
seeds come from :func:`repro.core.replication.run_replicated` (``repro
sweep --reps``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["mser_truncation"]


def mser_truncation(series: Sequence[float], min_tail: int = 5) -> int:
    """MSER warmup-truncation point of a per-interval series.

    Returns the index d minimizing the Marginal Standard Error Rule
    statistic ``var(tail) / len(tail)^2`` computed over ``series[d:]`` —
    observations before d are initial-transient and should be discarded.
    """
    arr = np.asarray(series, dtype=float)
    n = len(arr)
    if n < min_tail + 1:
        return 0
    best_d, best_stat = 0, np.inf
    # The standard guard: never truncate more than half the series.
    for d in range(0, n - min_tail):
        if d > n // 2:
            break
        tail = arr[d:]
        stat = tail.var() / len(tail) ** 2
        if stat < best_stat:
            best_stat = stat
            best_d = d
    return best_d
