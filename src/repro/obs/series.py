"""Windowed time-series telemetry over counters and log histograms.

RunMetrics answers "what happened over the measurement window"; the
cluster timeline figure needs "what happened *when*" — throughput,
tail latency, shed rate, and cache hit rate as functions of simulated
time, so a flash crowd's surge and a rolling restart's drain are
visible as shapes rather than folded into one number.

:class:`SeriesRecorder` buckets observations into fixed-width time
bins.  Counters are per-bin float adds; distributions are per-bin
:class:`~repro.obs.hist.LogHistogram` instances, so any quantile can be
read per bin after the fact.  Nothing here touches the simulator: a
recorder is pure bookkeeping driven by timestamps the caller already
has, which is what keeps ``observe=True`` runs byte-identical to
unobserved ones.

**Exact merge.**  :meth:`SeriesRecorder.merge` adds counter bins and
merges histogram buckets bin by bin; every histogram shares
:mod:`~repro.obs.hist`'s one bucketing, so only the bin widths must
match.  Histogram bucket counts, totals of integer-valued counters,
``count``/``min``/``max`` — and therefore every quantile series — are
*exactly* equal between one aggregate recorder and the merge of
per-tier recorders fed the same events (pinned in tests).  Only a histogram's float ``total`` can differ in
the last ulp, because float addition is order-sensitive; quantiles
never read it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from .hist import LogHistogram

__all__ = ["SeriesRecorder"]


class SeriesRecorder:
    """Fixed-interval time series of counters and distributions."""

    __slots__ = ("bin_width", "counters", "hists")

    def __init__(self, bin_width: float = 0.5) -> None:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.bin_width = bin_width
        self.counters: Dict[str, Dict[int, float]] = {}
        self.hists: Dict[str, Dict[int, LogHistogram]] = {}

    def _bin(self, t: float) -> int:
        return int(t // self.bin_width)

    # -- recording -------------------------------------------------------
    def inc(self, name: str, t: float, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name`` in the bin containing ``t``."""
        bins = self.counters.get(name)
        if bins is None:
            bins = self.counters[name] = {}
        b = self._bin(t)
        bins[b] = bins.get(b, 0.0) + amount

    def observe(self, name: str, t: float, value: float) -> None:
        """Fold ``value`` into distribution ``name``'s bin at ``t``."""
        bins = self.hists.get(name)
        if bins is None:
            bins = self.hists[name] = {}
        b = self._bin(t)
        hist = bins.get(b)
        if hist is None:
            hist = bins[b] = LogHistogram(name)
        hist.observe(value)

    # -- reading ---------------------------------------------------------
    def names(self) -> List[str]:
        """All recorded counter and distribution names, sorted."""
        return sorted(set(self.counters) | set(self.hists))

    def _span(
        self,
        bins: Dict[int, object],
        t0: Optional[float],
        t1: Optional[float],
    ) -> Optional[Tuple[int, int]]:
        lo = self._bin(t0) if t0 is not None else (min(bins) if bins else None)
        if t1 is not None:
            hi: Optional[int] = self._bin(t1)
            if t1 == hi * self.bin_width:
                hi -= 1  # an edge-aligned t1 excludes the (empty) next bin
        else:
            hi = max(bins) if bins else None
        if lo is None or hi is None or hi < lo:
            return None
        return lo, hi

    def rate_series(
        self,
        name: str,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
    ) -> Tuple[List[float], List[float]]:
        """(bin start times, per-second rates) for counter ``name``.

        The range defaults to the counter's populated bins; pass
        ``t0``/``t1`` to pin it (empty bins read as zero).
        """
        bins = self.counters.get(name, {})
        span = self._span(bins, t0, t1)
        if span is None:
            return [], []
        lo, hi = span
        times = [i * self.bin_width for i in range(lo, hi + 1)]
        rates = [bins.get(i, 0.0) / self.bin_width for i in range(lo, hi + 1)]
        return times, rates

    def quantile_series(
        self,
        name: str,
        q: float,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
    ) -> Tuple[List[float], List[float]]:
        """(bin start times, per-bin q-th percentile) for ``name``.

        Bins with no observations read as ``nan`` so plots show gaps
        rather than fabricated zeros.
        """
        bins = self.hists.get(name, {})
        span = self._span(bins, t0, t1)
        if span is None:
            return [], []
        lo, hi = span
        times = [i * self.bin_width for i in range(lo, hi + 1)]
        values = [
            bins[i].percentile(q) if i in bins else math.nan
            for i in range(lo, hi + 1)
        ]
        return times, values

    def count_series(
        self,
        name: str,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
    ) -> Tuple[List[float], List[float]]:
        """(bin start times, per-bin observation counts) for ``name``."""
        bins = self.hists.get(name, {})
        span = self._span(bins, t0, t1)
        if span is None:
            return [], []
        lo, hi = span
        times = [i * self.bin_width for i in range(lo, hi + 1)]
        counts = [
            float(bins[i].count) if i in bins else 0.0
            for i in range(lo, hi + 1)
        ]
        return times, counts

    # -- merge -----------------------------------------------------------
    def merge(self, other: "SeriesRecorder") -> None:
        """Fold ``other`` in: exact bin-by-bin counter and bucket adds."""
        if self.bin_width != other.bin_width:
            raise ValueError("cannot merge series with different binning")
        for name, bins in other.counters.items():
            mine = self.counters.setdefault(name, {})
            for b, value in bins.items():
                mine[b] = mine.get(b, 0.0) + value
        for name, bins in other.hists.items():
            mine = self.hists.setdefault(name, {})
            for b, hist in bins.items():
                target = mine.get(b)
                if target is None:
                    target = mine[b] = LogHistogram(name)
                target.merge(hist)
