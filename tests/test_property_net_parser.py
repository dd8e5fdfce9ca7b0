"""Property-based tests for links, the HTTP parser and distributions."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.http import RequestParser
from repro.net import Link
from repro.sim import Simulator
from repro.workload import BoundedPareto, Geometric


# ---------------------------------------------------------------------------
# Link invariants
# ---------------------------------------------------------------------------

transmissions = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),  # at
        st.integers(min_value=1, max_value=100_000),  # nbytes
    ),
    min_size=1,
    max_size=40,
)


@given(transmissions)
@settings(max_examples=60, deadline=None)
def test_link_fifo_and_work_conservation(txs):
    """Deliveries preserve issue order and the wire is work-conserving."""
    sim = Simulator()
    link = Link(sim, bandwidth_bytes_per_s=1e5, latency_s=0.01)
    deliveries = []

    for i, (at, nbytes) in enumerate(txs):
        sim.call_later(
            at,
            lambda i=i, n=nbytes: link.transmit(n).callbacks.append(
                lambda _e: deliveries.append((sim.now, i))
            ),
        )
    sim.run()
    assert len(deliveries) == len(txs)
    times = [t for t, _i in deliveries]
    assert times == sorted(times)

    # Work conservation: busy-period recurrence gives the last delivery.
    expected = 0.0
    for at, nbytes in sorted(txs):
        start = max(expected, at)
        expected = start + nbytes / 1e5
    assert abs(max(times) - (expected + 0.01)) < 1e-6


@given(st.lists(st.integers(min_value=1, max_value=50_000), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_link_throughput_never_exceeds_bandwidth(sizes):
    sim = Simulator()
    bw = 12_500.0
    link = Link(sim, bw, latency_s=0.0)
    done = []
    for n in sizes:
        link.transmit(n).callbacks.append(lambda _e: done.append(sim.now))
    sim.run()
    elapsed = max(done)
    assert sum(sizes) / elapsed <= bw * (1 + 1e-9)


# ---------------------------------------------------------------------------
# Parser invariants
# ---------------------------------------------------------------------------

request_lines = st.lists(
    st.tuples(
        st.sampled_from(["GET", "HEAD", "POST"]),
        st.integers(min_value=0, max_value=9999),
        st.binary(min_size=0, max_size=64),
    ),
    min_size=1,
    max_size=8,
)


def render(method, file_id, body):
    head = (
        f"{method} /file/{file_id} HTTP/1.1\r\n"
        f"Host: sut\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    return head + body


@given(request_lines, st.data())
@settings(max_examples=80, deadline=None)
def test_parser_reassembles_any_fragmentation(reqs, data):
    """A pipelined byte stream parses identically however it is split."""
    stream = b"".join(render(m, f, b) for m, f, b in reqs)
    parser = RequestParser()
    parsed = []
    pos = 0
    while pos < len(stream):
        step = data.draw(st.integers(min_value=1, max_value=len(stream) - pos))
        parsed.extend(parser.feed(stream[pos:pos + step]))
        pos += step
    assert len(parsed) == len(reqs)
    for got, (method, file_id, body) in zip(parsed, reqs):
        assert got.method == method
        assert got.target == f"/file/{file_id}"
        assert got.body == body
    assert parser.buffered_bytes == 0


# ---------------------------------------------------------------------------
# Distribution invariants
# ---------------------------------------------------------------------------

@given(
    st.floats(min_value=0.01, max_value=10.0),
    st.floats(min_value=0.5, max_value=3.0),
    st.floats(min_value=20.0, max_value=1000.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=80, deadline=None)
def test_bounded_pareto_support_and_mean_bound(k, alpha, upper_mult, seed):
    upper = k * upper_mult
    d = BoundedPareto(k=k, alpha=alpha, upper=upper)
    rng = np.random.default_rng(seed)
    xs = [d.sample(rng) for _ in range(200)]
    assert all(k <= x <= upper for x in xs)
    assert k <= d.mean() <= upper


@given(st.floats(min_value=1.0, max_value=50.0), st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_geometric_support(mean, seed):
    d = Geometric(mean)
    rng = np.random.default_rng(seed)
    xs = [d.sample(rng) for _ in range(100)]
    assert all(x >= 1 for x in xs)
    assert all(float(x).is_integer() for x in xs)
