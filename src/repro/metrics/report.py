"""Run-result snapshots and plain-text reporting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .collectors import CLIENT_TIMEOUT, CONNECTION_RESET, MetricsHub

__all__ = ["RunMetrics", "format_table"]


@dataclass(frozen=True)
class RunMetrics:
    """Immutable summary of one experiment run (one sweep point)."""

    clients: int
    duration: float
    replies: int
    throughput_rps: float
    response_time_mean: float
    response_time_p50: float
    response_time_p90: float
    response_time_p99: float
    ttfb_mean: float
    connection_time_mean: float
    connection_time_p99: float
    client_timeout_rate: float
    connection_reset_rate: float
    errors: Dict[str, int]
    bandwidth_mbytes_per_s: float
    cpu_utilization: float
    sessions_completed: int
    connections_established: int
    reply_rate_cov: float
    server_stats: Dict[str, float] = field(default_factory=dict)
    #: Always at these defaults: kept only because the pinned e2e row
    #: digests hash every field of this dataclass.
    trace_dropped: int = 0
    trace_counts: Optional[Dict[str, int]] = None

    @staticmethod
    def from_hub(
        hub: MetricsHub,
        clients: int,
        cpu_utilization: float,
        server_stats: Dict[str, float],
    ) -> "RunMetrics":
        return RunMetrics(
            clients=clients,
            duration=hub.duration,
            replies=hub.replies,
            throughput_rps=hub.throughput_rps,
            response_time_mean=hub.response_time.mean,
            response_time_p50=hub.response_time.percentile(50),
            response_time_p90=hub.response_time.percentile(90),
            response_time_p99=hub.response_time.percentile(99),
            ttfb_mean=hub.time_to_first_byte.mean,
            connection_time_mean=hub.connection_time.mean,
            connection_time_p99=hub.connection_time.percentile(99),
            client_timeout_rate=hub.error_rate(CLIENT_TIMEOUT),
            connection_reset_rate=hub.error_rate(CONNECTION_RESET),
            errors=dict(hub.errors),
            bandwidth_mbytes_per_s=hub.bandwidth_bytes_per_s / 1e6,
            cpu_utilization=cpu_utilization,
            sessions_completed=hub.sessions_completed,
            connections_established=hub.connections_established,
            reply_rate_cov=hub.reply_series.coefficient_of_variation(),
            server_stats=dict(server_stats),
        )

    def row(self) -> Dict[str, float]:
        """The columns the benchmark harness prints per sweep point."""
        return {
            "clients": self.clients,
            "replies/s": round(self.throughput_rps, 1),
            "resp_ms": round(self.response_time_mean * 1e3, 2),
            "conn_ms": round(self.connection_time_mean * 1e3, 3),
            "timeout/s": round(self.client_timeout_rate, 2),
            "reset/s": round(self.connection_reset_rate, 2),
            "MB/s": round(self.bandwidth_mbytes_per_s, 2),
            "cpu%": round(self.cpu_utilization * 100, 1),
        }


def format_table(rows: Sequence[Dict[str, object]], title: str = "") -> str:
    """Render dict rows as an aligned plain-text table."""
    if not rows:
        return f"{title}\n(no data)" if title else "(no data)"
    columns: List[str] = list(rows[0].keys())
    widths = {
        col: max(len(col), *(len(str(r.get(col, ""))) for r in rows))
        for col in columns
    }
    header = "  ".join(col.rjust(widths[col]) for col in columns)
    sep = "  ".join("-" * widths[col] for col in columns)
    body = [
        "  ".join(str(r.get(col, "")).rjust(widths[col]) for col in columns)
        for r in rows
    ]
    lines = ([title] if title else []) + [header, sep] + body
    return "\n".join(lines)
