"""Connection-lifecycle spans: who waited where, for how long.

A :class:`ConnSpan` is one connection's timeline: the moment the first
SYN left the client, marks for every phase transition and connection
event the transport and the server observe, and a terminal status.
Mark names:

==============  ============================================================
mark            meaning
==============  ============================================================
routed          a cluster front end picked the replica (cluster runs only)
backlog_enter   handshake completed into the kernel accept queue
established     SYN-ACK reached the client (httperf's connection time)
accept          the application dequeued the connection
req_sent        the client put a request on the wire
req_arrive      a request became readable at the server
svc_start       the server began burning CPU on a request (read+parse+file)
svc_end         request CPU service finished
tx_start        the first response chunk was queued onto the wire
reply_done      the last response byte reached the client
syn_drop        a SYN arrived at a full backlog and was dropped
syn_shed        the overload control's admission policy refused a SYN
idle_reap       the server reaped the idle connection (httpd's timeout)
server_close    the server closed its end
==============  ============================================================

The last four are connection events rather than phase boundaries:
:func:`phase_intervals` and the histograms ignore them.  ``syn_drop``
and ``syn_shed`` are made once per dropped SYN, so a retransmitting
client can carry several; ``idle_reap`` precedes the ``server_close`` it
causes.

Terminal statuses: ``closed`` (orderly), ``reset`` (client hit a
server-reaped connection), ``connect_timeout``, ``client_timeout``,
``unfinished`` (still open when the recorder was flushed — e.g. stuck in
SYN retransmission at the end of a run).

:func:`phase_intervals` turns the marks into named ``(phase, start,
end)`` intervals; :meth:`SpanRecorder.finish` aggregates the same
intervals into the recorder's histogram registry, so the full-fidelity
spans (bounded ring) and the lossless aggregates (histograms) always
agree.

The recorder reads time from the clock it is given; a simulated run
passes ``lambda: sim.now``.

Storage: a span keeps its marks as two flat typed arrays, a
``bytearray`` of codes (each an index into :data:`MARKS`, the table
above in order) and an ``array('d')`` of times, about 9 bytes a mark
instead of an 83-byte ``(name, t)`` tuple.  :meth:`ConnSpan.mark`
appends to both and rejects a name outside :data:`MARKS`;
:attr:`ConnSpan.events` is a read-only list of ``(name, t)`` pairs built
on each read.  A span has one writer, its simulated connection, so the
two arrays stay aligned.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .hist import Registry

__all__ = [
    "ConnSpan",
    "SpanRecorder",
    "phase_intervals",
    "MARKS",
    "QUEUE_HISTOGRAMS",
    "SERVICE_HISTOGRAMS",
]

#: Every mark name, in the module docstring's order; a span stores each
#: mark as its index here.
MARKS = (
    "routed",
    "backlog_enter",
    "established",
    "accept",
    "req_sent",
    "req_arrive",
    "svc_start",
    "svc_end",
    "tx_start",
    "reply_done",
    "syn_drop",
    "syn_shed",
    "idle_reap",
    "server_close",
)
_CODE = {name: code for code, name in enumerate(MARKS)}
_BACKLOG_ENTER = _CODE["backlog_enter"]
_ACCEPT = _CODE["accept"]
_REQ_ARRIVE = _CODE["req_arrive"]
_SVC_START = _CODE["svc_start"]
_SVC_END = _CODE["svc_end"]
_TX_START = _CODE["tx_start"]
_REPLY_DONE = _CODE["reply_done"]


def _code(name: str) -> int:
    """The code of mark ``name``; a name outside :data:`MARKS` raises."""
    try:
        return _CODE[name]
    except KeyError:
        raise ValueError(
            f"unknown span mark {name!r} (expected one of {MARKS})"
        ) from None


#: Histograms counted as *queue wait* in the latency breakdown: time a
#: client spent making no progress, including the failed connections
#: httperf excludes from response-time statistics.
QUEUE_HISTOGRAMS = (
    "conn_syn_wait",
    "conn_backlog_wait",
    "conn_failed_wait",
    "req_queue_wait",
    "req_abandoned_wait",
)

#: Histograms counted as *service time*: the server was actively parsing,
#: computing or streaming bytes for the request.
SERVICE_HISTOGRAMS = ("req_service", "req_transmit")


class ConnSpan:
    """One connection's recorded timeline."""

    __slots__ = ("recorder", "cid", "t0", "_codes", "_times", "status", "t_end")

    def __init__(
        self,
        cid: int,
        t0: float,
        recorder: Optional["SpanRecorder"] = None,
    ) -> None:
        self.recorder = recorder
        self.cid = cid
        self.t0 = t0
        self._codes = bytearray()
        self._times = array("d")
        self.status: Optional[str] = None
        self.t_end: Optional[float] = None

    def mark(self, phase: str) -> None:
        """Stamp a phase transition at the recorder's current time.

        ``phase`` must be one of :data:`MARKS`; any other name raises
        ``ValueError`` and records nothing.
        """
        self._codes.append(_code(phase))
        self._times.append(self.recorder.now())

    @property
    def events(self) -> List[Tuple[str, float]]:
        """The marks as ``(name, t)`` pairs, in order (a fresh list)."""
        return list(zip(map(MARKS.__getitem__, self._codes), self._times))

    @property
    def duration(self) -> float:
        """Lifetime so far (0 until at least one mark or finish)."""
        if self.t_end is not None:
            return self.t_end - self.t0
        if self._times:
            return self._times[-1] - self.t0
        return 0.0

    def first(self, phase: str) -> Optional[float]:
        """Timestamp of the first occurrence of ``phase`` mark."""
        i = self._codes.find(_code(phase))
        return None if i < 0 else self._times[i]

    def to_dict(self) -> Dict:
        """JSON-serialisable form (inverse of :meth:`from_dict`)."""
        return {
            "cid": self.cid,
            "t0": self.t0,
            "status": self.status,
            "t_end": self.t_end,
            "events": [
                [MARKS[code], t] for code, t in zip(self._codes, self._times)
            ],
        }

    @staticmethod
    def from_dict(data: Dict) -> "ConnSpan":
        """Rebuild a span from :meth:`to_dict` output (recorder-less)."""
        span = ConnSpan(data["cid"], data["t0"])
        events = data["events"]
        span._codes = bytearray(_code(name) for name, _t in events)
        span._times = array("d", [t for _name, t in events])
        span.status = data.get("status")
        span.t_end = data.get("t_end")
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ConnSpan {self.cid} {self.status or 'open'} "
            f"{len(self._codes)} marks>"
        )


def phase_intervals(span: ConnSpan) -> List[Tuple[str, float, float]]:
    """Named (phase, start, end) intervals derived from a span's marks.

    Requests pipeline on a persistent connection, so arrival/service/
    transmit marks are matched FIFO — servers answer a connection's
    requests in order.  Waits truncated by the terminal event (a request
    never served, a backlog slot never accepted) are closed at ``t_end``
    and labelled ``*_abandoned``.
    """
    out: List[Tuple[str, float, float]] = []
    backlog_enter: Optional[float] = None
    accepted: Optional[float] = None
    arrivals: Deque[float] = deque()
    svc_starts: Deque[float] = deque()
    tx_starts: Deque[float] = deque()
    for code, t in zip(span._codes, span._times):
        if code == _BACKLOG_ENTER:
            backlog_enter = t
            out.append(("syn", span.t0, t))
        elif code == _ACCEPT:
            accepted = t
            if backlog_enter is not None:
                out.append(("backlog", backlog_enter, t))
        elif code == _REQ_ARRIVE:
            arrivals.append(t)
        elif code == _SVC_START:
            if arrivals:
                out.append(("queue_wait", arrivals.popleft(), t))
            svc_starts.append(t)
        elif code == _SVC_END:
            if svc_starts:
                out.append(("service", svc_starts.popleft(), t))
        elif code == _TX_START:
            tx_starts.append(t)
        elif code == _REPLY_DONE:
            if tx_starts:
                out.append(("transmit", tx_starts.popleft(), t))
    end = span.t_end if span.t_end is not None else span.duration + span.t0
    if backlog_enter is None:
        out.append(("syn_abandoned", span.t0, end))
    elif accepted is None:
        out.append(("backlog_abandoned", backlog_enter, end))
    for t in arrivals:
        out.append(("queue_abandoned", t, end))
    return out


class SpanRecorder:
    """Low-overhead recorder of connection spans plus phase aggregates.

    Completed spans are retained in a bounded ring (``capacity``) for
    export; every completed span is also folded into the histogram
    ``registry`` so aggregates are lossless even when the ring drops
    spans.  ``dropped`` counts ring evictions.
    """

    def __init__(self, clock: Callable[[], float], capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._clock = clock
        self.registry = Registry()
        self.spans: Deque[ConnSpan] = deque(maxlen=capacity)
        self.dropped = 0
        self._open: Dict[int, ConnSpan] = {}
        self._next_cid = 0

    def now(self) -> float:
        """Current time on the recorder's clock."""
        return self._clock()

    # -- lifecycle -------------------------------------------------------
    def open(self) -> ConnSpan:
        """Start a span at the current time (the client's first SYN)."""
        cid = self._next_cid
        self._next_cid += 1
        span = ConnSpan(cid, self.now(), recorder=self)
        self._open[cid] = span
        return span

    def finish(self, span: Optional[ConnSpan], status: str) -> None:
        """Terminate a span (idempotent; ``span=None`` is a no-op)."""
        if span is None or span.status is not None:
            return
        span.status = status
        span.t_end = self.now()
        self._open.pop(span.cid, None)
        self._aggregate(span)
        if len(self.spans) == self.spans.maxlen:
            self.dropped += 1
        self.spans.append(span)

    def flush(self, status: str = "unfinished") -> int:
        """Finish every still-open span (end of run); returns how many."""
        open_spans = list(self._open.values())
        for span in open_spans:
            self.finish(span, status)
        return len(open_spans)

    # -- aggregation -----------------------------------------------------
    _PHASE_TO_HIST = {
        "syn": "conn_syn_wait",
        "backlog": "conn_backlog_wait",
        "queue_wait": "req_queue_wait",
        "service": "req_service",
        "transmit": "req_transmit",
        "syn_abandoned": "conn_failed_wait",
        "backlog_abandoned": "conn_failed_wait",
        "queue_abandoned": "req_abandoned_wait",
    }

    def _aggregate(self, span: ConnSpan) -> None:
        reg = self.registry
        for phase, start, end in phase_intervals(span):
            name = self._PHASE_TO_HIST.get(phase)
            if name is not None:
                reg.histogram(name).observe(end - start)
        reg.histogram("conn_lifetime").observe((span.t_end or span.t0) - span.t0)
        reg.counter(f"spans_{span.status}").inc()

    # -- reporting -------------------------------------------------------
    def breakdown(self) -> Dict[str, float]:
        """Queue-wait vs service-time attribution over all finished spans.

        *Queue* sums every second a client spent waiting without being
        served — SYN retransmission, the kernel accept queue, requests
        sitting unserved, and the entire lifetime of connections that
        never established (the failures httperf excludes from
        response-time statistics).  *Service* sums CPU service and
        transmit time.  Shares are fractions of queue + service.
        """
        reg = self.registry
        queue = sum(reg.hist_total(name) for name in QUEUE_HISTOGRAMS)
        service = sum(reg.hist_total(name) for name in SERVICE_HISTOGRAMS)
        total = queue + service
        return {
            "queue_wait_s": queue,
            "service_s": service,
            "queue_share": queue / total if total else 0.0,
            "service_share": service / total if total else 0.0,
        }

    def slowest(self, n: int = 1) -> List[ConnSpan]:
        """The ``n`` longest-lived finished spans (for timeline rendering)."""
        return sorted(self.spans, key=lambda s: s.duration, reverse=True)[:n]

    def __len__(self) -> int:
        return len(self.spans)
