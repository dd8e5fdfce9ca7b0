"""Unit tests for connection spans, phase intervals and the recorder."""

import itertools

import pytest

import repro.obs.spans
from repro.obs import ConnSpan, SpanRecorder, phase_intervals
from repro.obs.spans import MARKS, QUEUE_HISTOGRAMS, SERVICE_HISTOGRAMS


class FakeClock:
    """Manually advanced clock for deterministic span tests."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def recorder(clock):
    return SpanRecorder(clock, capacity=8)


def _lifecycle(recorder, clock, marks, status="closed"):
    """Open a span, stamp ``marks`` as (name, t) pairs, finish at last t."""
    span = recorder.open()
    for name, t in marks:
        clock.t = t
        span.mark(name)
    recorder.finish(span, status)
    return span


# ---------------------------------------------------------------------------
# ConnSpan
# ---------------------------------------------------------------------------

def test_span_marks_and_duration(recorder, clock):
    span = recorder.open()
    assert span.duration == 0.0
    clock.t = 1.5
    span.mark("backlog_enter")
    assert span.duration == 1.5
    assert span.first("backlog_enter") == 1.5
    assert span.first("accept") is None
    clock.t = 2.0
    recorder.finish(span, "closed")
    assert span.t_end == 2.0
    assert span.duration == 2.0


def test_span_dict_round_trip(recorder, clock):
    span = _lifecycle(
        recorder, clock,
        [("backlog_enter", 0.1), ("accept", 0.2), ("req_arrive", 0.3)],
    )
    clone = ConnSpan.from_dict(span.to_dict())
    assert clone.cid == span.cid
    assert clone.events == span.events
    assert clone.status == "closed"
    assert clone.t_end == span.t_end


def test_marks_are_the_docstring_table():
    lines = repro.obs.spans.__doc__.splitlines()
    rules = [i for i, line in enumerate(lines) if line.startswith("=====")]
    rows = lines[rules[1] + 1:rules[2]]
    assert tuple(row.split()[0] for row in rows if row[:1].isalpha()) == MARKS


def test_mark_rejects_a_name_outside_marks(recorder, clock):
    span = recorder.open()
    span.mark("accept")
    with pytest.raises(ValueError, match="svc_begin"):
        span.mark("svc_begin")
    with pytest.raises(ValueError, match="acept"):
        span.first("acept")
    assert span.events == [("accept", 0.0)]  # nothing half-recorded


def test_events_is_a_read_only_view(recorder, clock):
    span = _lifecycle(recorder, clock, [("backlog_enter", 0.5)])
    view = span.events
    view.append(("accept", 1.0))
    assert span.events == [("backlog_enter", 0.5)]
    with pytest.raises(AttributeError):
        span.events = []


#: A routed connection serving five requests: 33 marks, about the 30.5
#: a cluster flash-crowd span carries on average.
_ROUTED_FIVE = ("routed", "backlog_enter", "accept") + (
    "req_sent", "req_arrive", "svc_start", "svc_end", "tx_start", "reply_done",
) * 5


def test_finished_span_is_small(bytes_per_instance):
    """A finished 33-mark span keeps its marks as flat typed arrays
    (under 1 kB; one ``(name, t)`` tuple per mark cost 2.9 kB)."""
    ticks = itertools.count(1)
    recorder = SpanRecorder(lambda: next(ticks) * 1e-3, capacity=1)

    def finished():
        span = recorder.open()
        for name in _ROUTED_FIVE:
            span.mark(name)
        recorder.finish(span, "closed")
        return span

    assert len(_ROUTED_FIVE) == 33
    assert bytes_per_instance(finished) < 1000


# ---------------------------------------------------------------------------
# phase_intervals
# ---------------------------------------------------------------------------

def test_intervals_happy_path(recorder, clock):
    span = _lifecycle(
        recorder, clock,
        [
            ("backlog_enter", 1.0),
            ("established", 1.1),
            ("accept", 2.0),
            ("req_arrive", 2.1),
            ("svc_start", 3.0),
            ("svc_end", 3.5),
            ("tx_start", 3.6),
            ("reply_done", 4.0),
        ],
    )
    phases = {p: (a, b) for p, a, b in phase_intervals(span)}
    assert phases["syn"] == (0.0, 1.0)
    assert phases["backlog"] == (1.0, 2.0)
    assert phases["queue_wait"] == (2.1, 3.0)
    assert phases["service"] == (3.0, 3.5)
    assert phases["transmit"] == (3.6, 4.0)
    assert "syn_abandoned" not in phases


def test_intervals_fifo_matching_for_pipelined_requests(recorder, clock):
    # Two requests arrive before either is served: waits must pair FIFO.
    span = _lifecycle(
        recorder, clock,
        [
            ("backlog_enter", 0.0),
            ("accept", 0.0),
            ("req_arrive", 1.0),
            ("req_arrive", 2.0),
            ("svc_start", 3.0),
            ("svc_end", 4.0),
            ("svc_start", 5.0),
            ("svc_end", 6.0),
        ],
    )
    waits = [(a, b) for p, a, b in phase_intervals(span) if p == "queue_wait"]
    assert waits == [(1.0, 3.0), (2.0, 5.0)]


def test_intervals_syn_abandoned(recorder, clock):
    span = _lifecycle(recorder, clock, [], status="connect_timeout")
    clockless = {p for p, _, _ in phase_intervals(span)}
    assert clockless == {"syn_abandoned"}


def test_intervals_backlog_abandoned(recorder, clock):
    span = _lifecycle(
        recorder, clock, [("backlog_enter", 1.0)], status="connect_timeout"
    )
    phases = {p: (a, b) for p, a, b in phase_intervals(span)}
    assert phases["syn"] == (0.0, 1.0)
    assert phases["backlog_abandoned"] == (1.0, 1.0)
    assert "backlog" not in phases


def test_intervals_queue_abandoned_closes_at_t_end(recorder, clock):
    span = _lifecycle(
        recorder, clock,
        [("backlog_enter", 0.5), ("accept", 1.0), ("req_arrive", 2.0)],
        status="client_timeout",
    )
    phases = {p: (a, b) for p, a, b in phase_intervals(span)}
    assert phases["queue_abandoned"] == (2.0, span.t_end)


# ---------------------------------------------------------------------------
# SpanRecorder
# ---------------------------------------------------------------------------

def test_finish_is_idempotent_and_none_safe(recorder, clock):
    recorder.finish(None, "closed")  # no-op
    span = recorder.open()
    recorder.finish(span, "closed")
    recorder.finish(span, "reset")  # second finish ignored
    assert span.status == "closed"
    assert len(recorder) == 1


def test_ring_eviction_counts_drops(clock):
    recorder = SpanRecorder(clock, capacity=2)
    for _ in range(5):
        recorder.finish(recorder.open(), "closed")
    assert len(recorder) == 2
    assert recorder.dropped == 3
    # Aggregates keep full fidelity even though spans were evicted.
    assert recorder.registry.counter("spans_closed").value == 5


def test_capacity_validation(clock):
    with pytest.raises(ValueError):
        SpanRecorder(clock, capacity=0)


def test_flush_finishes_open_spans(recorder, clock):
    a = recorder.open()
    b = recorder.open()
    recorder.finish(a, "closed")
    assert recorder.flush() == 1
    assert b.status == "unfinished"
    assert recorder.flush() == 0


def test_aggregation_and_breakdown(recorder, clock):
    _lifecycle(
        recorder, clock,
        [
            ("backlog_enter", 1.0),   # 1.0 syn wait (queue)
            ("accept", 3.0),          # 2.0 backlog wait (queue)
            ("req_arrive", 3.0),
            ("svc_start", 6.0),       # 3.0 queue wait (queue)
            ("svc_end", 8.0),         # 2.0 service
            ("tx_start", 8.0),
            ("reply_done", 10.0),     # 2.0 transmit (service)
        ],
    )
    # A never-established connection: entire 5 s lifetime is failed wait.
    clock.t = 10.0
    failed = recorder.open()
    clock.t = 15.0
    recorder.finish(failed, "connect_timeout")

    reg = recorder.registry
    assert reg.hist_total("conn_failed_wait") == pytest.approx(5.0)
    assert sum(reg.hist_total(n) for n in QUEUE_HISTOGRAMS) == pytest.approx(
        1.0 + 2.0 + 3.0 + 5.0
    )
    assert sum(reg.hist_total(n) for n in SERVICE_HISTOGRAMS) == pytest.approx(
        2.0 + 2.0
    )
    b = recorder.breakdown()
    assert b["queue_wait_s"] == pytest.approx(11.0)
    assert b["service_s"] == pytest.approx(4.0)
    assert b["queue_share"] == pytest.approx(11.0 / 15.0)
    assert b["service_share"] == pytest.approx(4.0 / 15.0)
    assert reg.counter("spans_closed").value == 1
    assert reg.counter("spans_connect_timeout").value == 1


def test_breakdown_empty_recorder(recorder):
    b = recorder.breakdown()
    assert b["queue_share"] == 0.0 and b["service_share"] == 0.0


def test_slowest_orders_by_duration(recorder, clock):
    quick = _lifecycle(recorder, clock, [("backlog_enter", 2.5)])
    clock.t = 3.0
    slow = _lifecycle(recorder, clock, [("backlog_enter", 20.0)])
    assert slow.duration > quick.duration
    assert recorder.slowest(2) == [slow, quick]
