"""Plain-text rendering of observability data for the CLI report."""

from __future__ import annotations

from typing import List, Optional

from .hist import Registry
from .spans import ConnSpan, phase_intervals

__all__ = ["format_phase_table", "format_registry_table", "render_timeline"]

#: Stable display order for the span-derived latency histograms.
_PHASE_ORDER = (
    "conn_syn_wait",
    "conn_backlog_wait",
    "req_queue_wait",
    "req_service",
    "req_transmit",
    "req_abandoned_wait",
    "conn_failed_wait",
    "conn_lifetime",
)


def format_phase_table(registry: Registry) -> str:
    """count/mean/p50/p90/p99 per lifecycle-phase histogram, in ms."""
    rows = []
    names = [n for n in _PHASE_ORDER if n in registry.histograms]
    names += [n for n in sorted(registry.histograms) if n not in _PHASE_ORDER]
    for name in names:
        s = registry.histograms[name].summary()
        rows.append(
            f"{name:>20s}  n={int(s['count']):>8d}  "
            f"mean={s['mean'] * 1e3:9.3f}ms  p50={s['p50'] * 1e3:9.3f}ms  "
            f"p90={s['p90'] * 1e3:9.3f}ms  p99={s['p99'] * 1e3:9.3f}ms"
        )
    return "\n".join(rows) or "(no histograms)"


def format_registry_table(registry: Registry) -> str:
    """Counters as aligned name/value lines."""
    lines = [
        f"{name:>24s}: {registry.counters[name].value:g}"
        for name in sorted(registry.counters)
    ]
    return "\n".join(lines) or "(no counters)"


def render_timeline(span: ConnSpan, width: int = 64) -> str:
    """ASCII timeline of one connection span.

    One row per lifecycle interval, positioned proportionally over the
    span's lifetime — a poor man's flamegraph for terminals.
    """
    end = span.t_end if span.t_end is not None else span.t0 + span.duration
    total = max(end - span.t0, 1e-12)
    header = (
        f"conn {span.cid}: {span.status or 'open'}, "
        f"{total * 1e3:.3f} ms total"
    )
    rows: List[str] = [header]
    for phase, start, stop in phase_intervals(span):
        left = int((start - span.t0) / total * width)
        bar = max(1, int((stop - start) / total * width))
        bar = min(bar, width - left) if left < width else 1
        line = " " * min(left, width - 1) + "#" * bar
        rows.append(
            f"  {phase:>17s} |{line.ljust(width)}| "
            f"{(stop - start) * 1e3:9.3f} ms"
        )
    return "\n".join(rows)


def render_slowest(recorder, n: int = 3, width: int = 64) -> Optional[str]:
    """Timelines of the ``n`` slowest spans, or None when empty."""
    spans = recorder.slowest(n)
    if not spans:
        return None
    return "\n\n".join(render_timeline(span, width=width) for span in spans)
