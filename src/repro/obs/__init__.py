"""Request-lifecycle observability: spans, histograms, phase profiling.

The paper's central explanatory claim (figure 2) — httpd2's response
times look low only because failed connections are excluded and clients
are served serialized, while nio's grow because everyone progresses
concurrently — is a claim about *where time is spent inside a
connection*.  Window-level means cannot show it; this package can:

* :class:`SpanRecorder` stamps every connection with a lifecycle span
  timeline (SYN -> backlog wait -> accept -> parse -> service queue ->
  CPU service -> transmit -> close/reset/timeout), mounted on the
  simulated servers via ``ServerSpec(observe=True)``;
* :class:`Registry` holds the recorder's counters and log-bucketed
  :class:`LogHistogram` metrics, which ``repro observe`` prints;
* :class:`PhaseProfiler` attributes every CPU-second a simulated server
  burns to a phase (accept/select/parse/service/transmit/...), so
  architectures can be compared by where their cycles go;
* exporters turn recorded spans into JSONL and Chrome ``trace_event``
  JSON (flamegraph-viewable per-connection timelines);
* the cluster tier's :class:`ClusterTracer`, :class:`SeriesRecorder`
  and :class:`SloMonitor` feed ``repro trace``, ``repro cluster
  --stats`` and the cluster timeline figure.

Everything is opt-in and pay-for-use: with no recorder/profiler mounted
the instrumentation sites cost one attribute load and an ``is None``
check.
"""

from .export import (
    spans_from_jsonl,
    spans_to_chrome_trace,
    spans_to_jsonl,
)
from .hist import CounterMetric, LogHistogram, Registry
from .profiler import PhaseProfiler
from .report import format_phase_table, format_registry_table, render_timeline
from .series import SeriesRecorder
from .slo import SloAlert, SloMonitor, SloSpec, default_slos
from .spans import (
    ConnSpan,
    SpanRecorder,
    phase_intervals,
)
from .trace import (
    ClusterTracer,
    RequestTrace,
    TracingSpanRecorder,
    attribution_summary,
    derive_span_id,
    derive_trace_id,
    exact_partition,
    render_waterfall,
    request_traces_from_span,
    traces_from_jsonl,
    traces_to_chrome_trace,
    traces_to_jsonl,
)

__all__ = [
    "ConnSpan",
    "SpanRecorder",
    "phase_intervals",
    "CounterMetric",
    "LogHistogram",
    "Registry",
    "PhaseProfiler",
    "SeriesRecorder",
    "SloSpec",
    "SloAlert",
    "SloMonitor",
    "default_slos",
    "ClusterTracer",
    "RequestTrace",
    "TracingSpanRecorder",
    "attribution_summary",
    "derive_trace_id",
    "derive_span_id",
    "exact_partition",
    "request_traces_from_span",
    "render_waterfall",
    "traces_to_jsonl",
    "traces_from_jsonl",
    "traces_to_chrome_trace",
    "spans_to_jsonl",
    "spans_from_jsonl",
    "spans_to_chrome_trace",
    "format_phase_table",
    "format_registry_table",
    "render_timeline",
]
