"""Property-based tests for stores, metrics and charts."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import StatAccumulator
from repro.metrics.plot import ascii_chart
from repro.sim import Simulator, Store


@given(st.lists(st.integers(min_value=0, max_value=999), min_size=1, max_size=60))
@settings(max_examples=50, deadline=None)
def test_store_preserves_fifo_order_under_mixed_ops(items):
    """Whatever the put/get interleaving, items come out in put order."""
    sim = Simulator()
    store = Store(sim)
    received = []

    def consumer():
        for _ in items:
            item = yield store.get()
            received.append(item)

    sim.process(consumer())
    for i, item in enumerate(items):
        sim.call_later(i * 0.01, store.put, item)
    sim.run()
    assert received == items


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=60, deadline=None)
def test_stat_accumulator_matches_reference(values):
    acc = StatAccumulator()
    for v in values:
        acc.add(v)
    assert acc.count == len(values)
    assert acc.min == min(values)
    assert acc.max == max(values)
    ref_mean = sum(values) / len(values)
    assert abs(acc.mean - ref_mean) <= 1e-6 * max(1.0, abs(ref_mean))
    assert acc.percentile(0) >= acc.min - 1e-9
    assert acc.percentile(100) <= acc.max + 1e-9
    assert acc.percentile(50) <= acc.percentile(90) + 1e-12


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1e4, allow_nan=False),
            st.floats(min_value=0, max_value=1e4, allow_nan=False),
        ),
        min_size=1,
        max_size=30,
    ),
    st.integers(min_value=10, max_value=100),
    st.integers(min_value=4, max_value=30),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_ascii_chart_never_crashes_and_respects_dims(points, width, height, logy):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    out = ascii_chart(
        [("s", xs, ys)], width=width, height=height, logy=logy
    )
    lines = out.splitlines()
    body = [l for l in lines if "|" in l]
    assert len(body) == height
    for line in body:
        assert len(line.split("|", 1)[1]) == width
