"""Cluster-wide causal tracing: one span tree per request, exact sums.

PR 4's :class:`~repro.obs.spans.ConnSpan` records a *connection's*
timeline at one SUT.  The cluster tier adds everything around it — WAN
link, balancer pick, front cache, replica choice — and this module ties
those into a per-request :class:`RequestTrace`: a causally-linked record
of the request's path (client send -> WAN up -> replica queue -> CPU
service -> stall -> transmit back) or the cache short-circuit (send ->
WAN up -> cache service -> transmit).

Three properties are load-bearing and pinned by tests:

* **Determinism without RNG.**  Trace and span ids are derived by
  hashing ``(seed, rid, conn_id)`` — the same sha256-prefix idiom the
  consistent-hash balancer uses — so two runs of the same spec produce
  byte-identical traces and no RNG stream is ever consumed.
* **Exact attribution.**  :meth:`RequestTrace.attribution` and
  :meth:`RequestTrace.by_tier` split the measured end-to-end response
  time into per-segment / per-tier floats whose *left-to-right float
  sum reproduces the response time bit for bit* (tolerance 0).  The
  trick is :func:`exact_partition`: every part keeps its measured value
  except one residual slot, polished until the running float sum lands
  exactly on the total.
* **Pay-for-use.**  The tracer is pure bookkeeping at event sites that
  already exist; it schedules no simulator events and charges no
  machine CPU, so mounting it cannot perturb RunMetrics (pinned by
  ``tests/test_cluster_observe_equivalence.py``).

Timestamp identity makes exactness possible at all: the ``req_sent``
mark is stamped in ``Connection.send_request`` in the same simulator
event (hence the same float) as ``PendingResponse.sent_at``, and
``reply_done`` is stamped in the same event as the client's response
time measurement — so ``trace.response_time`` *is* the measured value,
not an approximation of it.

Storage: a :class:`RequestTrace` keeps its segment end times as one
tuple of floats, and its segment names as one tuple shared by every
trace of the same path shape; ``bounds`` pairs the two up on each read.
Harvesting a span makes one pass over its mark arrays into one column of
times per mark, and each trace takes its end times as one row of the
columns, with no intermediate ``(name, t)`` pairs.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from .spans import MARKS, ConnSpan, SpanRecorder

__all__ = [
    "derive_trace_id",
    "derive_span_id",
    "exact_partition",
    "RequestTrace",
    "request_traces_from_span",
    "ClusterTracer",
    "TracingSpanRecorder",
    "attribution_summary",
    "traces_to_jsonl",
    "traces_from_jsonl",
    "traces_to_chrome_trace",
    "render_waterfall",
    "SEGMENT_TIERS",
]


def _hash64(text: str) -> int:
    """First 8 bytes of sha256 as an int (same idiom as the chash ring)."""
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def derive_trace_id(seed: int, rid: str, conn_id: int) -> str:
    """Deterministic 16-hex trace id from ``(seed, rid, conn_id)``.

    No RNG draw: identity comes from the run seed, the tier that served
    the request, and the recorder-assigned connection id, all of which
    are themselves deterministic.
    """
    return f"{_hash64(f'{seed}/{rid}/{conn_id}'):016x}"


def derive_span_id(trace_id: str, name: str) -> str:
    """Deterministic 16-hex span id within a trace."""
    return f"{_hash64(f'{trace_id}/{name}'):016x}"


def exact_partition(
    total: float, items: Sequence[Tuple[str, float]]
) -> Dict[str, float]:
    """Split ``total`` into named parts that float-sum back *exactly*.

    All parts keep their given values verbatim except one residual
    slot, polished until summing the returned values in dict
    (= insertion) order reproduces ``total`` bit for bit.  The residual
    slot is the last part: the telescoping ``total - partial`` is
    almost always already exact, and a short polish loop closes any
    rounding gap.  In one rare geometry no last-slot value works at
    all — when the residual dominates the total, nudging it steps the
    rounded sum in exactly one-ULP-of-total strides, and round-to-even
    parity can make the target unreachable forever.  The fallback then
    shifts the residual to the smallest nonzero part instead, whose
    finer ULP gives sub-ULP control over the fold and always reaches
    the total.
    """
    out: Dict[str, float] = {}
    if not items:
        return out
    values = [value for _name, value in items]

    def polish(j: int) -> bool:
        prev_sign = 0
        for _ in range(128):
            s = 0.0
            for value in values:
                s += value
            if s == total:
                return True
            err = total - s
            sign = 1 if err > 0 else -1
            # A sign flip means full-error steps straddle the total in
            # one-ULP strides (the round-half-even trap); halving the
            # step lands between the halfway points and breaks it.
            if sign == -prev_sign:
                err *= 0.5
            if values[j] + err != values[j]:
                values[j] += err
            else:
                values[j] = math.nextafter(
                    values[j], math.inf if s < total else -math.inf
                )
            prev_sign = sign
        return False

    partial = 0.0
    for value in values[:-1]:
        partial += value
    values[-1] = total - partial
    if not polish(len(values) - 1):
        candidates = [
            j for j, value in enumerate(values[:-1]) if value != 0.0
        ]
        if candidates:
            polish(min(candidates, key=lambda j: abs(values[j])))
    for (name, _given), value in zip(items, values):
        out[name] = value
    return out


#: Which cluster tier each trace segment belongs to.  ``balancer`` never
#: appears as a segment (a pick is instantaneous in simulated time; its
#: modelled CPU cost goes to the PhaseProfiler's ``balance`` phase) but
#: :meth:`RequestTrace.by_tier` reports it as an explicit zero row so
#: per-tier tables always show the full path.
SEGMENT_TIERS = {
    "wan_up": "wan",
    "transmit": "wan",
    "replica_queue": "replica",
    "replica_service": "replica",
    "replica_stall": "replica",
    "cache_service": "cache",
}


class RequestTrace:
    """One request's causally-linked path through the cluster.

    ``bounds`` is the ordered ``(segment, end_time)`` list: segment k
    runs from the previous boundary (or ``t_sent``) to its end time.
    ``rid`` is the replica that served the request, or ``"cache"`` for
    a front-cache hit; ``cid`` is the recorder connection id (−1 for
    cache hits, which never reach a replica connection); ``index`` is
    the request's position on its connection (pipelining) or the
    cache-hit ordinal.  ``bounds`` is built on each read from the end
    times and the shared segment names (see the module docstring).
    """

    __slots__ = (
        "trace_id", "rid", "wan_class", "cid", "index", "t_sent",
        "_names", "_ends",
    )

    def __init__(
        self,
        trace_id: str,
        rid: str,
        wan_class: str,
        cid: int,
        index: int,
        t_sent: float,
        bounds: Tuple[Tuple[str, float], ...],
    ) -> None:
        bounds = tuple(bounds)
        if not bounds:
            raise ValueError("a trace needs at least one segment boundary")
        names = tuple(name for name, _t in bounds)
        self._fill(
            trace_id, rid, wan_class, cid, index, t_sent,
            _SHAPES.get(names, names), tuple(t for _name, t in bounds),
        )

    def _fill(
        self,
        trace_id: str,
        rid: str,
        wan_class: str,
        cid: int,
        index: int,
        t_sent: float,
        names: Tuple[str, ...],
        ends: Tuple[float, ...],
    ) -> None:
        self.trace_id = trace_id
        self.rid = rid
        self.wan_class = wan_class
        self.cid = cid
        self.index = index
        self.t_sent = t_sent
        self._names = names
        self._ends = ends

    @property
    def bounds(self) -> Tuple[Tuple[str, float], ...]:
        """The ordered ``(segment, end_time)`` pairs (built on each read)."""
        return tuple(zip(self._names, self._ends))

    @property
    def t_done(self) -> float:
        return self._ends[-1]

    @property
    def response_time(self) -> float:
        """End-to-end response time — bit-identical to the client's."""
        return self.t_done - self.t_sent

    @property
    def tier(self) -> str:
        return "cache" if self.rid == "cache" else "replica"

    @property
    def span_id(self) -> str:
        return derive_span_id(self.trace_id, f"req{self.index}")

    def segments(self) -> List[Tuple[str, float, float]]:
        """Ordered (segment, start, end) intervals, clamped monotone."""
        out: List[Tuple[str, float, float]] = []
        prev = self.t_sent
        for name, t in zip(self._names, self._ends):
            if t < prev:
                t = prev
            out.append((name, prev, t))
            prev = t
        return out

    def attribution(self) -> Dict[str, float]:
        """Per-segment seconds; float-sums exactly to ``response_time``."""
        return exact_partition(
            self.response_time,
            [(name, end - start) for name, start, end in self.segments()],
        )

    def by_tier(self) -> Dict[str, float]:
        """Per-tier seconds; float-sums exactly to ``response_time``.

        Replica-served traces lead with an explicit ``balancer: 0.0``
        row (a pick takes zero simulated time — see
        :data:`SEGMENT_TIERS`); adding 0.0 first cannot disturb the
        exact-sum property since ``0.0 + x == x``.
        """
        groups: List[Tuple[str, float]] = []
        slot: Dict[str, int] = {}
        if self.rid != "cache":
            slot["balancer"] = 0
            groups.append(("balancer", 0.0))
        for name, start, end in self.segments():
            tier = SEGMENT_TIERS.get(name, self.tier)
            if tier in slot:
                i = slot[tier]
                groups[i] = (tier, groups[i][1] + (end - start))
            else:
                slot[tier] = len(groups)
                groups.append((tier, end - start))
        return exact_partition(self.response_time, groups)

    def spans(self) -> List[Dict]:
        """The trace as a flat span tree (request root, segment children)."""
        root = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": None,
            "name": f"request[{self.index}] via {self.rid}",
            "tier": "client",
            "start": self.t_sent,
            "end": self.t_done,
        }
        out = [root]
        for name, start, end in self.segments():
            out.append(
                {
                    "trace_id": self.trace_id,
                    "span_id": derive_span_id(self.trace_id, f"req{self.index}/{name}"),
                    "parent_id": self.span_id,
                    "name": name,
                    "tier": SEGMENT_TIERS.get(name, self.tier),
                    "start": start,
                    "end": end,
                }
            )
        return out

    def to_dict(self) -> Dict:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return {
            "trace_id": self.trace_id,
            "rid": self.rid,
            "wan_class": self.wan_class,
            "cid": self.cid,
            "index": self.index,
            "t_sent": self.t_sent,
            "bounds": [[name, t] for name, t in zip(self._names, self._ends)],
        }

    @staticmethod
    def from_dict(data: Dict) -> "RequestTrace":
        return RequestTrace(
            trace_id=data["trace_id"],
            rid=data["rid"],
            wan_class=data["wan_class"],
            cid=data["cid"],
            index=data["index"],
            t_sent=data["t_sent"],
            bounds=tuple((name, t) for name, t in data["bounds"]),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RequestTrace {self.trace_id} req[{self.index}] -> {self.rid} "
            f"{self.response_time * 1e3:.3f} ms>"
        )


#: A replica-served request's segments, in causal order: segment k ends
#: at the k-th mark of :data:`_REPLICA_MARKS` after ``req_sent``.
_REPLICA_SEGMENTS = (
    "wan_up", "replica_queue", "replica_service", "replica_stall", "transmit",
)
_REPLICA_MARKS = (
    "req_sent", "req_arrive", "svc_start", "svc_end", "tx_start", "reply_done",
)
#: Harvest column of each mark code: its index in :data:`_REPLICA_MARKS`,
#: or -1 for a mark no trace reads.
_COLUMN = tuple(
    _REPLICA_MARKS.index(name) if name in _REPLICA_MARKS else -1
    for name in MARKS
)
#: The segment-name tuple of each path shape, shared by all its traces.
_SHAPES = {
    shape: shape
    for shape in (
        _REPLICA_SEGMENTS,
        ("wan_up", "cache_service", "transmit"),
    )
}


def request_traces_from_span(
    span: ConnSpan, seed: int, rid: str, wan_class: str
) -> List[RequestTrace]:
    """Per-request traces from one routed connection span.

    Requests pipeline FIFO on a persistent connection (the same
    invariant :func:`~repro.obs.spans.phase_intervals` relies on), so
    the i-th ``req_sent`` pairs with the i-th mark of every later
    phase.  Only *completed* requests (an i-th ``reply_done`` exists)
    yield traces; a trailing request cut off by a reset, client
    timeout, or end-of-run flush is simply unmatched and dropped —
    response-time metrics exclude it too, so traces and metrics agree.

    One pass over the span's mark arrays fills one column of times per
    mark; each trace then takes its end times as one row of the columns.
    """
    cols: Tuple[List[float], ...] = ([], [], [], [], [], [])
    column = _COLUMN
    for code, t in zip(span._codes, span._times):
        j = column[code]
        if j >= 0:
            cols[j].append(t)
    sent, ends_cols = cols[0], cols[1:]
    n = min(len(sent), len(cols[-1]))
    if not n:
        return []
    cid = span.cid
    trace_id = derive_trace_id(seed, rid, cid)
    out: List[RequestTrace] = []
    # Requests with every mark share the full shape; rows come off zip.
    full = min(n, min(map(len, ends_cols)))
    for i, t_sent, ends in zip(range(full), sent, zip(*ends_cols)):
        trace = object.__new__(RequestTrace)
        trace._fill(
            trace_id, rid, wan_class, cid, i, t_sent, _REPLICA_SEGMENTS, ends
        )
        out.append(trace)
    # A request missing a phase mark keeps the segments it can end.
    for i in range(full, n):
        names = tuple(
            segment
            for segment, col in zip(_REPLICA_SEGMENTS, ends_cols)
            if i < len(col)
        )
        trace = object.__new__(RequestTrace)
        trace._fill(
            trace_id, rid, wan_class, cid, i, sent[i],
            _SHAPES.get(names, names),
            tuple(col[i] for col in ends_cols if i < len(col)),
        )
        out.append(trace)
    return out


class ClusterTracer:
    """Bounded ring of request traces harvested from finished spans.

    Connections are *registered* with their route (``rid``, WAN class)
    when the balancer's pick is known; when the span finishes — any
    status, including the end-of-run flush — the route is popped and
    the span's completed requests become :class:`RequestTrace` records.
    Unregistered spans (slowloris attackers, never-routed clients) are
    skipped.  ``dropped`` counts ring evictions, surfaced in the
    cluster aggregate stats; cache hits never touch a replica
    connection, so the client reports them directly via
    :meth:`record_cache_hit`.
    """

    def __init__(self, seed: int, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.seed = seed
        self.traces: Deque[RequestTrace] = deque(maxlen=capacity)
        self.recorded = 0
        self.dropped = 0
        self._routes: Dict[int, Tuple[str, str]] = {}
        self._cache_hits = 0

    def register(self, span: ConnSpan, rid: str, wan_class: str) -> None:
        """Bind an open connection span to its routed replica."""
        self._routes[span.cid] = (rid, wan_class)

    def harvest(self, span: ConnSpan) -> None:
        """Turn a finished, registered span into request traces."""
        route = self._routes.pop(span.cid, None)
        if route is None:
            return
        rid, wan_class = route
        for trace in request_traces_from_span(span, self.seed, rid, wan_class):
            self._push(trace)

    def record_cache_hit(
        self,
        wan_class: str,
        t_sent: float,
        t_arrive: float,
        t_service: float,
        t_done: float,
    ) -> None:
        """Trace a request answered at the front cache.

        Cache hits have no replica connection, so the synthetic conn id
        in the trace-id derivation is the per-run hit ordinal — still
        deterministic, still RNG-free.
        """
        index = self._cache_hits
        self._cache_hits += 1
        self._push(
            RequestTrace(
                trace_id=derive_trace_id(self.seed, "cache", index),
                rid="cache",
                wan_class=wan_class,
                cid=-1,
                index=index,
                t_sent=t_sent,
                bounds=(
                    ("wan_up", t_arrive),
                    ("cache_service", t_service),
                    ("transmit", t_done),
                ),
            )
        )

    def _push(self, trace: RequestTrace) -> None:
        if len(self.traces) == self.traces.maxlen:
            self.dropped += 1
        self.traces.append(trace)
        self.recorded += 1

    def slowest(self, n: int = 1) -> List[RequestTrace]:
        """The ``n`` slowest retained traces, slowest first."""
        return sorted(self.traces, key=lambda t: t.response_time, reverse=True)[:n]

    def stats(self) -> Dict[str, float]:
        """Flat counters for the cluster-aggregate ``server_stats``."""
        return {
            "trace.requests": float(self.recorded),
            "trace.dropped": float(self.dropped),
            "trace.retained": float(len(self.traces)),
        }

    def __len__(self) -> int:
        return len(self.traces)


class TracingSpanRecorder(SpanRecorder):
    """A :class:`SpanRecorder` that also feeds a :class:`ClusterTracer`.

    Subclassing keeps every finish site — client close, reset, timeout,
    slowloris reap, end-of-run flush — covered without touching the
    base recorder or the servers: the idempotent guard is replicated so
    a span is harvested exactly once, on the finish that counted.
    """

    def __init__(self, clock, tracer: ClusterTracer) -> None:
        super().__init__(clock)
        self.tracer = tracer

    def finish(self, span: Optional[ConnSpan], status: str) -> None:
        if span is None or span.status is not None:
            return
        super().finish(span, status)
        self.tracer.harvest(span)


def attribution_summary(traces: Iterable[RequestTrace]) -> Dict[str, float]:
    """Total seconds per tier across traces (plain float sums)."""
    out: Dict[str, float] = {}
    for trace in traces:
        for tier, seconds in trace.by_tier().items():
            out[tier] = out.get(tier, 0.0) + seconds
    return out


# -- export ---------------------------------------------------------------
def traces_to_jsonl(traces: Iterable[RequestTrace]) -> str:
    """One JSON object per line (inverse of :func:`traces_from_jsonl`)."""
    return "\n".join(json.dumps(t.to_dict(), sort_keys=True) for t in traces)


def traces_from_jsonl(text: str) -> List[RequestTrace]:
    """Parse traces back from :func:`traces_to_jsonl` output."""
    return [
        RequestTrace.from_dict(json.loads(line))
        for line in text.splitlines()
        if line.strip()
    ]


def traces_to_chrome_trace(traces: Iterable[RequestTrace]) -> Dict:
    """Chrome ``trace_event`` JSON: one process per tier, thread per conn.

    Load the result (saved as ``.json``) in ``chrome://tracing`` or
    Perfetto; each request renders as a row of complete ("X") slices,
    one per segment, grouped under the replica/cache that served it.
    """
    traces = list(traces)
    tiers = sorted({t.rid for t in traces})
    pid_of = {rid: i + 1 for i, rid in enumerate(tiers)}
    events: List[Dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": f"tier {rid}"},
        }
        for rid, pid in pid_of.items()
    ]
    for trace in traces:
        pid = pid_of[trace.rid]
        tid = trace.cid if trace.cid >= 0 else trace.index
        for name, start, end in trace.segments():
            events.append(
                {
                    "name": name,
                    "cat": trace.wan_class or "trace",
                    "ph": "X",
                    "ts": start * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "args": {
                        "trace_id": trace.trace_id,
                        "span_id": trace.span_id,
                        "request": trace.index,
                    },
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def render_waterfall(trace: RequestTrace, width: int = 64) -> str:
    """ASCII per-tier waterfall of one trace (for the ``trace`` CLI)."""
    total = max(trace.response_time, 1e-12)
    lines = [
        f"trace {trace.trace_id} req[{trace.index}] -> {trace.rid}"
        f" ({trace.wan_class or 'wan'}) {trace.response_time * 1e3:.3f} ms"
    ]
    for name, start, end in trace.segments():
        left = min(int((start - trace.t_sent) / total * width), width - 1)
        bar = max(1, int((end - start) / total * width))
        bar = min(bar, width - left)
        tier = SEGMENT_TIERS.get(name, trace.tier)
        lines.append(
            f"  {tier:>8s}/{name:<15s} |{(' ' * left + '#' * bar).ljust(width)}|"
            f" {(end - start) * 1e3:9.3f} ms"
        )
    return "\n".join(lines)
