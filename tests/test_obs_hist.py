"""Unit tests for the observability histogram registry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import CounterMetric, LogHistogram, Registry
from repro.obs.hist import GROWTH, LO


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------

def test_counter_only_goes_up():
    c = CounterMetric("requests")
    c.inc()
    c.inc(4.0)
    assert c.value == 5.0
    with pytest.raises(ValueError):
        c.inc(-1.0)


# ---------------------------------------------------------------------------
# LogHistogram
# ---------------------------------------------------------------------------

def test_histogram_basic_recording():
    h = LogHistogram("lat")
    for v in (0.0, 1e-7, 0.001, 0.01, 0.01, 10.0):
        h.observe(v)
    assert h.count == 6
    assert h.underflow == 2  # 0.0 and 1e-7 are both <= LO
    assert h.min == 0.0
    assert h.max == 10.0
    assert h.total == pytest.approx(10.021 + 1e-7)
    assert h.mean == pytest.approx(h.total / 6)


def test_histogram_negative_clamped_to_zero():
    h = LogHistogram("lat")
    h.observe(-3.0)
    assert h.count == 1
    assert h.underflow == 1
    assert h.min == 0.0
    assert h.total == 0.0


def test_bucket_bounds_contain_their_samples():
    h = LogHistogram("lat")
    for v in (1e-5, 3.7e-4, 0.02, 1.0, 42.0):
        idx = h.bucket_index(v)
        assert idx is not None
        upper = h.bucket_upper_bound(idx)
        lower = upper / GROWTH if idx > 0 else LO
        assert lower < v <= upper * (1 + 1e-12)


def test_percentile_within_bucket_error():
    h = LogHistogram("lat")
    values = [0.001 * (i + 1) for i in range(1000)]
    for v in values:
        h.observe(v)
    # Bucket upper bounds overestimate by at most one growth factor.
    assert 0.5 <= h.percentile(50) <= 0.5 * GROWTH * 1.001
    assert 0.9 <= h.percentile(90) <= 0.9 * GROWTH * 1.001
    assert h.percentile(100) == pytest.approx(1.0)


def test_percentile_empty_and_underflow_only():
    h = LogHistogram("lat")
    assert h.percentile(99) == 0.0
    h.observe(0.0)
    assert h.percentile(50) == 0.0  # clamped to max, not lo


def test_summary_keys():
    h = LogHistogram("lat")
    h.observe(0.25)
    s = h.summary()
    assert set(s) == {"count", "mean", "min", "max", "p50", "p90", "p99"}
    assert s["count"] == 1


# Property from the issue: two histograms merged bucket-by-bucket must be
# indistinguishable from one histogram fed the concatenated samples.
@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
        max_size=60,
    ),
    st.lists(
        st.floats(min_value=0.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
        max_size=60,
    ),
)
def test_merged_equals_concatenated(xs, ys):
    ha, hb, hc = (LogHistogram("h") for _ in range(3))
    for v in xs:
        ha.observe(v)
    for v in ys:
        hb.observe(v)
    for v in xs + ys:
        hc.observe(v)
    ha.merge(hb)
    assert ha.buckets == hc.buckets
    assert ha.underflow == hc.underflow
    assert ha.count == hc.count
    assert ha.total == pytest.approx(hc.total)
    if hc.count:
        assert ha.min == hc.min
        assert ha.max == hc.max


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_registry_creates_on_first_use():
    reg = Registry()
    assert reg.counter("a") is reg.counter("a")
    assert reg.histogram("c") is reg.histogram("c")
    assert reg.hist_total("absent") == 0.0
    reg.histogram("c").observe(2.5)
    assert reg.hist_total("c") == 2.5

