"""Unit tests for windowed time series and burn-rate SLO monitors."""

import math

import pytest

from repro.obs.series import SeriesRecorder
from repro.obs.slo import SloMonitor, SloSpec, default_slos

# -- SeriesRecorder: recording and reading --------------------------------

def test_counter_rate_series_fills_empty_bins_with_zero():
    rec = SeriesRecorder(bin_width=0.5)
    rec.inc("replies", 0.1)
    rec.inc("replies", 0.4)
    rec.inc("replies", 1.6, amount=3.0)
    times, rates = rec.rate_series("replies", t0=0.0, t1=2.0)
    assert times == [0.0, 0.5, 1.0, 1.5]
    # Two events in bin 0 over 0.5 s -> 4/s; bin 3 got a 3.0 add -> 6/s.
    assert rates == [4.0, 0.0, 0.0, 6.0]


def test_edge_aligned_t1_excludes_the_empty_next_bin():
    rec = SeriesRecorder(bin_width=0.5)
    rec.inc("replies", 0.2)
    times, _ = rec.rate_series("replies", t0=0.0, t1=1.0)
    assert times == [0.0, 0.5]  # not [0.0, 0.5, 1.0]


def test_quantile_series_gaps_read_as_nan():
    rec = SeriesRecorder(bin_width=1.0)
    for v in (0.1, 0.2, 0.3):
        rec.observe("rt", 0.5, v)
    rec.observe("rt", 2.5, 0.9)
    times, p50 = rec.quantile_series("rt", 50.0)
    assert times == [0.0, 1.0, 2.0]
    assert math.isnan(p50[1])  # no samples in bin 1: a gap, not a zero
    assert p50[0] == pytest.approx(0.2, rel=0.2)
    assert p50[2] == pytest.approx(0.9, rel=0.2)
    _, counts = rec.count_series("rt")
    assert counts == [3.0, 0.0, 1.0]


def test_count_series_counts_each_sample_once():
    # 0.0 and 5e-7 fall below the histogram's first bucket (underflow);
    # each still counts as one observation.
    rec = SeriesRecorder(bin_width=1.0)
    for v in (0.0, 5e-7, 0.2):
        rec.observe("depth", 0.5, v)
    assert rec.count_series("depth") == ([0.0], [3.0])


def test_empty_series_reads_empty():
    rec = SeriesRecorder()
    assert rec.rate_series("nope") == ([], [])
    assert rec.quantile_series("nope", 99.0) == ([], [])
    assert rec.names() == []


def test_bin_width_must_be_positive():
    with pytest.raises(ValueError):
        SeriesRecorder(bin_width=0.0)


# -- SeriesRecorder: exact merge ------------------------------------------

def _feed(rec, events):
    for t, value in events:
        rec.inc("replies", t)
        rec.observe("rt", t, value)


def test_merge_equals_aggregate_bit_for_bit():
    # Per-replica recorders merged together must read identically to one
    # aggregate recorder fed the interleaved stream: counter bins add
    # exactly and histogram buckets merge exactly, so every rate and
    # quantile series matches with tolerance zero.
    events_a = [(0.1 * i, 0.001 * (i + 1)) for i in range(40)]
    events_b = [(0.13 * i, 0.003 * (i + 1)) for i in range(40)]
    a, b, both = SeriesRecorder(), SeriesRecorder(), SeriesRecorder()
    _feed(a, events_a)
    _feed(b, events_b)
    _feed(both, events_a + events_b)
    a.merge(b)
    assert a.rate_series("replies") == both.rate_series("replies")
    t_m, q_m = a.quantile_series("rt", 99.0)
    t_o, q_o = both.quantile_series("rt", 99.0)
    assert t_m == t_o and q_m == q_o
    assert a.count_series("rt") == both.count_series("rt")


def test_merge_rejects_incompatible_binning():
    a = SeriesRecorder(bin_width=0.5)
    b = SeriesRecorder(bin_width=0.25)
    with pytest.raises(ValueError):
        a.merge(b)


# -- SloSpec validation ----------------------------------------------------

def test_slospec_rejects_bad_config():
    with pytest.raises(ValueError):
        SloSpec("x", kind="throughput")
    with pytest.raises(ValueError):
        SloSpec("x", objective=1.0)
    with pytest.raises(ValueError):
        SloSpec("x", short_window_s=4.0, long_window_s=1.0)


def test_default_slos_are_the_stock_pair():
    avail, latency = default_slos()
    assert avail.kind == "availability" and avail.objective == 0.999
    assert latency.kind == "latency" and latency.threshold_s == 0.25
    assert all(s.short_window_s <= s.long_window_s for s in (avail, latency))


# -- SloMonitor ------------------------------------------------------------

def _spec(**kw):
    base = dict(
        name="avail", kind="availability", objective=0.9,
        short_window_s=1.0, long_window_s=2.0,
        burn_threshold=2.0, min_events=5,
    )
    base.update(kw)
    return SloSpec(**base)


def test_alert_fires_and_resolves_deterministically():
    mon = SloMonitor(_spec())
    # Budget 0.1, burn threshold 2 -> fires once the bad fraction holds
    # >= 20% in BOTH windows with >= 5 events each.
    t = 0.0
    for i in range(20):
        t = 0.1 * i
        mon.record_reply(t, 0.01)  # all good: no alert
    assert not mon.firing and mon.alerts == []
    for i in range(20, 30):
        t = 0.1 * i
        mon.record_error(t, "reset")  # sustained errors
    assert mon.firing
    (alert,) = mon.alerts
    assert alert.slo == "avail"
    assert alert.short_burn >= 2.0 and alert.long_burn >= 2.0
    assert alert.resolved_at is None
    # Recovery: good replies dilute the short window below threshold.
    for i in range(30, 60):
        t = 0.1 * i
        mon.record_reply(t, 0.01)
    assert not mon.firing
    assert alert.resolved_at is not None
    assert alert.fired_at < alert.resolved_at


def test_min_events_gates_early_noise():
    mon = SloMonitor(_spec(min_events=50))
    for i in range(30):
        mon.record_error(0.01 * i, "reset")  # 100% bad but too few events
    assert not mon.firing and mon.alerts == []


def test_short_blip_alone_does_not_fire():
    # Multi-window gating: a one-bin error blip saturates the short
    # window but the long window's burn stays below threshold.
    mon = SloMonitor(_spec(min_events=5, burn_threshold=5.0))
    for i in range(100):
        mon.record_reply(0.02 * i, 0.01)  # 2 s of good traffic
    for i in range(3):
        mon.record_error(2.0 + 0.001 * i, "reset")
    assert not mon.firing and mon.alerts == []


def test_latency_kind_counts_slow_replies_as_bad():
    mon = SloMonitor(_spec(kind="latency", threshold_s=0.1))
    for i in range(10):
        mon.record_reply(0.1 * i, 0.5)  # all complete, all too slow
    assert mon.firing
    assert mon.bad_events == 10


def test_stats_expose_counts_and_first_firing():
    mon = SloMonitor(_spec())
    for i in range(10):
        mon.record_error(0.1 * i, "timeout")
    stats = mon.stats()
    assert stats["slo.avail.events"] == 10.0
    assert stats["slo.avail.bad"] == 10.0
    assert stats["slo.avail.alerts"] == 1.0
    assert stats["slo.avail.fired_at"] == mon.alerts[0].fired_at
    assert "slo.avail.resolved_at" not in stats
