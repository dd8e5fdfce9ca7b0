"""Counters and log-bucketed histograms with mergeable buckets.

The histogram uses geometric (log-spaced) buckets: bucket ``k`` covers
``(LO * GROWTH**k, LO * GROWTH**(k+1)]``, stored sparsely in a dict, so
a latency distribution spanning microseconds to tens of seconds costs a
few dozen integers.  Every histogram shares that one bucketing, so any
two merge exactly: the merged bucket counts equal the counts of a
histogram fed the concatenated samples (asserted by a property test).

A :class:`Registry` names the metrics of one observed run: the span
recorder's lifecycle-phase histograms and ``spans_<status>`` counters,
which ``repro observe`` prints.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

__all__ = ["CounterMetric", "LogHistogram", "Registry"]

#: Upper bound of the first bucket; zero and smaller values underflow.
LO = 1e-6
#: Bucket width ratio: 20 buckets per decade, ~12% worst-case quantile
#: error — plenty for latency attribution.
GROWTH = 10 ** 0.05
_INV_LOG_GROWTH = 1.0 / math.log(GROWTH)


class CounterMetric:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Increase the counter by ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class LogHistogram:
    """Sparse geometric-bucket histogram of non-negative values.

    Buckets follow the module's :data:`LO` and :data:`GROWTH`.  Zero
    (and sub-``LO``) values land in the underflow bucket whose upper
    bound is ``LO``.
    """

    __slots__ = ("name", "buckets", "underflow", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.buckets: Dict[int, int] = {}
        self.underflow = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    # -- recording -------------------------------------------------------
    def bucket_index(self, value: float) -> Optional[int]:
        """Bucket holding ``value``; ``None`` means the underflow bucket."""
        if value <= LO:
            return None
        # value in (LO * g**k, LO * g**(k+1)]  =>  k = ceil(log_g(v/LO)) - 1
        k = math.ceil(math.log(value / LO) * _INV_LOG_GROWTH) - 1
        return max(0, k)

    def observe(self, value: float) -> None:
        """Record one sample (negative values are clamped to zero)."""
        if value < 0.0:
            value = 0.0
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        idx = self.bucket_index(value)
        if idx is None:
            self.underflow += 1
        else:
            self.buckets[idx] = self.buckets.get(idx, 0) + 1

    # -- querying --------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def bucket_upper_bound(self, idx: Optional[int]) -> float:
        """Inclusive upper bound of bucket ``idx`` (None = underflow)."""
        if idx is None:
            return LO
        return LO * GROWTH ** (idx + 1)

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile (bucket upper bound, clamped)."""
        if not self.count:
            return 0.0
        rank = q / 100.0 * self.count
        seen = self.underflow
        if seen >= rank:
            return min(LO, self.max)
        for idx in sorted(self.buckets):
            seen += self.buckets[idx]
            if seen >= rank:
                return min(self.bucket_upper_bound(idx), self.max)
        return self.max

    # -- merging ---------------------------------------------------------
    def merge(self, other: "LogHistogram") -> None:
        """Fold ``other``'s buckets into this histogram (exact)."""
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        self.underflow += other.underflow
        self.count += other.count
        self.total += other.total
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)

    def summary(self) -> Dict[str, float]:
        """Dict of count/mean/min/max and key percentiles."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class Registry:
    """Named counters and histograms of one observed run."""

    def __init__(self) -> None:
        self.counters: Dict[str, CounterMetric] = {}
        self.histograms: Dict[str, LogHistogram] = {}

    # -- accessors (create on first use) ---------------------------------
    def counter(self, name: str) -> CounterMetric:
        """The counter called ``name``, created on first use."""
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = CounterMetric(name)
        return metric

    def histogram(self, name: str) -> LogHistogram:
        """The histogram called ``name``, created on first use."""
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = LogHistogram(name)
        return metric

    def hist_total(self, name: str) -> float:
        """Sum of all samples of histogram ``name`` (0 if absent)."""
        metric = self.histograms.get(name)
        return metric.total if metric is not None else 0.0
