"""Round-trip tests for the span exporters and report renderers."""

import json

import pytest

from repro.obs import (
    PhaseProfiler,
    SpanRecorder,
    format_phase_table,
    format_registry_table,
    render_timeline,
    spans_from_jsonl,
    spans_to_chrome_trace,
    spans_to_jsonl,
)
from repro.obs.report import render_slowest


class FakeClock:
    """Manually advanced clock for deterministic exporter tests."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture()
def recorder():
    clock = FakeClock()
    rec = SpanRecorder(clock, capacity=16)

    def run(marks, status="closed"):
        span = rec.open()
        for name, t in marks:
            clock.t = t
            span.mark(name)
        rec.finish(span, status)

    run([
        ("backlog_enter", 0.5),
        ("accept", 1.0),
        ("req_arrive", 1.1),
        ("svc_start", 2.0),
        ("svc_end", 2.5),
        ("tx_start", 2.6),
        ("reply_done", 3.0),
    ])
    clock.t = 3.0
    run([("backlog_enter", 4.0)], status="connect_timeout")
    return rec


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

def test_jsonl_round_trip(recorder):
    text = spans_to_jsonl(recorder.spans)
    assert len(text.splitlines()) == 2
    clones = spans_from_jsonl(text)
    for original, clone in zip(recorder.spans, clones):
        assert clone.to_dict() == original.to_dict()
    # Re-serialising the parsed spans is a fixpoint.
    assert spans_to_jsonl(clones) == text


def test_jsonl_skips_blank_lines(recorder):
    text = spans_to_jsonl(recorder.spans) + "\n\n"
    assert len(spans_from_jsonl(text)) == 2


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------

def test_chrome_trace_structure(recorder):
    trace = spans_to_chrome_trace(recorder.spans)
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    json.dumps(trace)  # must be serialisable as-is

    complete = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert {e["name"] for e in instants} == {"closed", "connect_timeout"}
    # One track per connection, timestamps in microseconds.
    cids = {e["tid"] for e in events}
    assert cids == {0, 1}
    service = next(e for e in complete if e["name"] == "service")
    assert service["ts"] == pytest.approx(2.0 * 1e6)
    assert service["dur"] == pytest.approx(0.5 * 1e6)
    for e in complete:
        assert e["dur"] >= 0.0


def test_chrome_trace_parses_back_to_phases(recorder):
    # The exported phases are exactly the recorder's phase intervals.
    from repro.obs import phase_intervals

    trace = spans_to_chrome_trace(recorder.spans)
    by_cid = {}
    for e in trace["traceEvents"]:
        if e["ph"] == "X":
            by_cid.setdefault(e["tid"], []).append(
                (e["name"], e["ts"] / 1e6, (e["ts"] + e["dur"]) / 1e6)
            )
    for span in recorder.spans:
        expected = [
            (p, pytest.approx(a), pytest.approx(b))
            for p, a, b in phase_intervals(span)
        ]
        assert by_cid[span.cid] == expected


# ---------------------------------------------------------------------------
# report renderers
# ---------------------------------------------------------------------------

def test_format_phase_table(recorder):
    table = format_phase_table(recorder.registry)
    assert "req_service" in table
    assert "conn_failed_wait" in table


def test_format_registry_table(recorder):
    table = format_registry_table(recorder.registry)
    assert "spans_closed" in table
    assert "spans_connect_timeout" in table


def test_render_timeline_and_slowest(recorder):
    span = list(recorder.spans)[0]
    art = render_timeline(span)
    assert "service" in art
    assert art.startswith("conn 0: closed")
    out = render_slowest(recorder, n=2)
    assert out.count("conn ") == 2
    assert render_slowest(SpanRecorder(lambda: 0.0)) is None


# ---------------------------------------------------------------------------
# PhaseProfiler
# ---------------------------------------------------------------------------

def test_profiler_attribution_and_shares():
    prof = PhaseProfiler()
    prof.add("parse", 1.0)
    prof.add("service", 3.0)
    prof.add("parse", 1.0)
    assert prof.cpu_seconds == {"parse": 2.0, "service": 3.0}
    # The share column divides each phase by the attributed total.
    shares = [float(line.split()[-1].rstrip("%"))
              for line in prof.table().splitlines()]
    assert shares == [40.0, 60.0]


def test_profiler_merge_and_table():
    # One profiler is shared by every charge site (the listener's rejects
    # and the server's phases), so charges to one phase merge into a row.
    prof = PhaseProfiler()
    prof.add("transmit", 3.0)
    prof.add("select", 1.0)
    prof.add("select", 1.0)
    assert prof.cpu_seconds == {"transmit": 3.0, "select": 2.0}
    # Phases print in name order with CPU milliseconds and their share.
    assert prof.table().splitlines() == [
        "  select    2000.000 ms   40.0%",
        "transmit    3000.000 ms   60.0%",
    ]
    assert PhaseProfiler().table() == "(no CPU attributed)"
