"""Unit tests for causal request traces and exact attribution.

The load-bearing property: per-segment and per-tier attribution
float-sums back to the measured end-to-end response time with tolerance
zero, because :func:`exact_partition` polishes the residual part ULP by
ULP until the insertion-order sum lands on the total bit for bit.
"""

import math

import pytest

from repro.obs.spans import ConnSpan
from repro.obs.trace import (
    SEGMENT_TIERS,
    ClusterTracer,
    RequestTrace,
    derive_span_id,
    derive_trace_id,
    exact_partition,
    render_waterfall,
    request_traces_from_span,
    traces_from_jsonl,
    traces_to_chrome_trace,
    traces_to_jsonl,
)

# -- exact_partition ------------------------------------------------------

#: Adversarial (total, parts) pairs: classic float-rounding traps where a
#: naive per-part split would not sum back to the total.
ADVERSARIAL = [
    (0.3, [("a", 0.1), ("b", 0.1), ("c", 0.1)]),
    (1.0, [(f"a{i}", 0.1) for i in range(7)] + [("b", 0.3)]),
    (1e-9, [("a", 3.33e-10), ("b", 3.33e-10), ("c", 3.34e-10)]),
    (1e16 + 2.0, [("a", 1e16), ("b", 1.0), ("c", 1.0)]),
    (2.5000000000000004, [("a", 0.7), ("b", 0.9), ("c", 0.9)]),
    (5.0, [("only", 5.0)]),
    (0.0, [("a", 0.0), ("b", 0.0)]),
    (math.pi, [("a", 1.0), ("b", 1.1), ("c", math.pi - 2.1)]),
]


@pytest.mark.parametrize("total,parts", ADVERSARIAL)
def test_exact_partition_sums_bit_for_bit(total, parts):
    out = exact_partition(total, parts)
    s = 0.0
    for value in out.values():
        s += value
    assert s == total  # tolerance 0, not approx


def test_exact_partition_keeps_all_but_last_verbatim():
    parts = [("a", 0.125), ("b", 0.25), ("c", 0.1)]
    out = exact_partition(0.5, parts)
    assert out["a"] == 0.125
    assert out["b"] == 0.25
    # Only the last part absorbs the residual.
    assert list(out) == ["a", "b", "c"]


def test_exact_partition_empty():
    assert exact_partition(1.0, []) == {}


# -- id derivation --------------------------------------------------------

def test_derived_ids_are_deterministic_and_distinct():
    a = derive_trace_id(7, "r0", 12)
    assert a == derive_trace_id(7, "r0", 12)
    assert len(a) == 16 and int(a, 16) >= 0
    assert a != derive_trace_id(7, "r0", 13)
    assert a != derive_trace_id(7, "r1", 12)
    assert a != derive_trace_id(8, "r0", 12)
    s = derive_span_id(a, "req0")
    assert len(s) == 16 and s != derive_span_id(a, "req1")


# -- span matching --------------------------------------------------------

def _span(cid, events):
    return ConnSpan.from_dict(
        {"cid": cid, "t0": events[0][1], "events": [list(e) for e in events]}
    )


def test_request_traces_match_pipelined_requests_fifo():
    # Two completed requests pipelined on one connection, plus a third
    # req_sent with no reply (cut off) that must not yield a trace.
    span = _span(5, [
        ("req_sent", 1.0), ("req_arrive", 1.1), ("svc_start", 1.2),
        ("svc_end", 1.3), ("tx_start", 1.35), ("reply_done", 1.5),
        ("req_sent", 2.0), ("req_arrive", 2.2), ("svc_start", 2.3),
        ("svc_end", 2.5), ("tx_start", 2.5), ("reply_done", 2.9),
        ("req_sent", 3.0),
    ])
    traces = request_traces_from_span(span, seed=7, rid="r1", wan_class="wan")
    assert len(traces) == 2
    first, second = traces
    assert first.trace_id == second.trace_id == derive_trace_id(7, "r1", 5)
    assert (first.index, second.index) == (0, 1)
    assert first.response_time == 1.5 - 1.0
    assert second.response_time == 2.9 - 2.0
    # FIFO pairing: the i-th req_sent got the i-th mark of every phase.
    assert dict(second.bounds)["replica_service"] == 2.5
    assert SEGMENT_TIERS["replica_service"] == "replica"


def test_a_request_missing_phase_marks_keeps_the_rest():
    # The second request's reply arrives with no arrival, service or
    # transmit-start mark: its trace has only the segments it can end.
    span = _span(3, [
        ("req_sent", 1.0), ("req_arrive", 1.1), ("svc_start", 1.2),
        ("svc_end", 1.3), ("tx_start", 1.4), ("reply_done", 1.5),
        ("req_sent", 2.0), ("reply_done", 2.5),
    ])
    first, second = request_traces_from_span(span, 7, "r0", "wan")
    assert [name for name, _t in first.bounds] == [
        "wan_up", "replica_queue", "replica_service", "replica_stall",
        "transmit",
    ]
    assert second.bounds == (("transmit", 2.5),)
    assert second.response_time == 2.5 - 2.0
    for trace in (first, second):
        clone = RequestTrace.from_dict(trace.to_dict())
        assert clone.to_dict() == trace.to_dict()


def test_attribution_and_by_tier_sum_exactly():
    span = _span(9, [
        ("req_sent", 0.1), ("req_arrive", 0.30000000000000004),
        ("svc_start", 0.4), ("svc_end", 0.7999999999999999),
        ("tx_start", 0.8), ("reply_done", 1.2000000000000002),
    ])
    (trace,) = request_traces_from_span(span, 42, "r2", "dsl")
    for split in (trace.attribution(), trace.by_tier()):
        s = 0.0
        for value in split.values():
            s += value
        assert s == trace.response_time
    tiers = trace.by_tier()
    # Replica traces lead with the explicit zero balancer row.
    assert list(tiers)[0] == "balancer"
    assert tiers["balancer"] == 0.0
    assert set(tiers) == {"balancer", "wan", "replica"}


def test_segments_clamp_non_monotone_marks():
    trace = RequestTrace(
        "0" * 16, "r0", "wan", 1, 0, 1.0,
        (("wan_up", 1.5), ("replica_queue", 1.4), ("transmit", 2.0)),
    )
    segs = trace.segments()
    assert all(start <= end for _, start, end in segs)
    # The clamped segment collapses to zero width, not negative.
    assert segs[1] == ("replica_queue", 1.5, 1.5)
    s = 0.0
    for value in trace.attribution().values():
        s += value
    assert s == trace.response_time


def test_empty_bounds_rejected():
    with pytest.raises(ValueError):
        RequestTrace("0" * 16, "r0", "wan", 1, 0, 1.0, ())


# -- tracer ---------------------------------------------------------------

def test_cache_hit_traces_are_deterministic_and_exact():
    tracer = ClusterTracer(seed=3)
    tracer.record_cache_hit("wan", 1.0, 1.2, 1.25, 1.5)
    tracer.record_cache_hit("wan", 2.0, 2.1, 2.15, 2.4)
    a, b = tracer.traces
    assert a.rid == b.rid == "cache"
    assert (a.cid, b.cid) == (-1, -1)
    assert a.trace_id == derive_trace_id(3, "cache", 0)
    assert b.trace_id == derive_trace_id(3, "cache", 1)
    tiers = a.by_tier()
    # No balancer row for cache hits; the path is wan -> cache -> wan.
    assert set(tiers) == {"wan", "cache"}
    s = 0.0
    for value in tiers.values():
        s += value
    assert s == a.response_time


def test_tracer_ring_eviction_is_counted():
    tracer = ClusterTracer(seed=1, capacity=2)
    for i in range(5):
        tracer.record_cache_hit("wan", i, i + 0.1, i + 0.2, i + 0.3)
    assert tracer.recorded == 5
    assert tracer.dropped == 3
    assert len(tracer) == 2
    stats = tracer.stats()
    assert stats["trace.requests"] == 5.0
    assert stats["trace.dropped"] == 3.0
    assert stats["trace.retained"] == 2.0


def test_unregistered_span_is_skipped():
    tracer = ClusterTracer(seed=1)
    span = _span(4, [("req_sent", 1.0), ("reply_done", 1.5)])
    tracer.harvest(span)  # never registered: slowloris / unrouted
    assert len(tracer) == 0
    tracer.register(span, "r0", "wan")
    tracer.harvest(span)
    assert len(tracer) == 1
    # The route is popped on harvest: a second finish cannot double-count.
    tracer.harvest(span)
    assert len(tracer) == 1


# -- export ---------------------------------------------------------------

def _sample_traces():
    tracer = ClusterTracer(seed=11)
    span = _span(2, [
        ("req_sent", 1.0), ("req_arrive", 1.1), ("svc_start", 1.2),
        ("svc_end", 1.4), ("tx_start", 1.4), ("reply_done", 1.8),
    ])
    tracer.register(span, "r1", "dsl")
    tracer.harvest(span)
    tracer.record_cache_hit("wan", 2.0, 2.1, 2.2, 2.3)
    return list(tracer.traces)


def test_jsonl_round_trip():
    traces = _sample_traces()
    back = traces_from_jsonl(traces_to_jsonl(traces))
    assert [t.to_dict() for t in back] == [t.to_dict() for t in traces]


def test_chrome_trace_structure():
    doc = traces_to_chrome_trace(_sample_traces())
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    slices = [e for e in events if e["ph"] == "X"]
    # One process per tier (cache + r1), named for chrome://tracing.
    assert {m["args"]["name"] for m in meta} == {"tier cache", "tier r1"}
    assert slices and all(e["dur"] >= 0 for e in slices)
    assert all("trace_id" in e["args"] for e in slices)


def test_waterfall_mentions_every_segment():
    trace = _sample_traces()[0]
    art = render_waterfall(trace)
    assert trace.trace_id in art
    for name, _t in trace.bounds:
        assert name in art
