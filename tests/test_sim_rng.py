"""Unit tests for deterministic named RNG streams.

The stream-equivalence property takes its example count from the active
hypothesis profile; CI runs this file again with
``--hypothesis-profile=ci`` (see ``tests/conftest.py``).
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RandomStreams, SimulationError


def test_same_name_same_seed_reproduces():
    a = RandomStreams(7).stream("workload").random(5)
    b = RandomStreams(7).stream("workload").random(5)
    np.testing.assert_array_equal(a, b)


def test_different_names_are_independent():
    rs = RandomStreams(7)
    a = rs.stream("alpha").random(5)
    b = rs.stream("beta").random(5)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = RandomStreams(1).stream("x").random(5)
    b = RandomStreams(2).stream("x").random(5)
    assert not np.array_equal(a, b)


def test_stream_is_cached():
    rs = RandomStreams(3)
    assert rs.stream("x") is rs.stream("x")


def test_order_independence_of_stream_creation():
    rs1 = RandomStreams(9)
    rs1.stream("first")
    a = rs1.stream("target").random(4)
    rs2 = RandomStreams(9)
    b = rs2.stream("target").random(4)  # created without "first"
    np.testing.assert_array_equal(a, b)


def test_spawn_indexed_streams():
    rs = RandomStreams(5)
    with rs.spawn("client", 0) as rng:
        a = rng.random(3)
    with rs.spawn("client", 1) as rng:
        b = rng.random(3)
    assert not np.array_equal(a, b)
    with RandomStreams(5).spawn("client", 0) as rng:
        c = rng.random(3)
    np.testing.assert_array_equal(a, c)


def dedicated(seed, name):
    """The plain generator a handle named ``name`` must match."""
    entropy = (seed, zlib.crc32(name.encode("utf-8")))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def draw(rng, kind, arg):
    if kind == "random":
        return rng.random(arg)
    if kind == "geometric":
        return rng.geometric(arg)
    if kind == "exponential":
        return rng.exponential(arg)
    return rng.integers(arg)


#: One draw: (kind, argument).  Every ``integers(n)`` with n <= 2**32
#: takes PCG64's buffered 32-bit path, so consecutive ones split a 64-bit
#: output and a handle must carry the buffered half-word across blocks.
draws = st.one_of(
    st.tuples(st.just("random"), st.integers(0, 5)),
    st.tuples(st.just("geometric"), st.floats(0.01, 1.0)),
    st.tuples(st.just("exponential"), st.floats(0.1, 100.0)),
    st.tuples(st.just("integers"), st.integers(1, 1 << 32)),
)
#: One ``with`` block: (handle index, the draws made inside it).
blocks = st.tuples(st.integers(0, 3), st.lists(draws, min_size=1, max_size=4))


@given(seed=st.integers(0, 2**32 - 1), ops=st.lists(blocks, max_size=40))
@settings(deadline=None)
def test_handles_draw_what_dedicated_generators_draw(seed, ops):
    """Handles of one RandomStreams, entered in any interleaving, each
    reproduce their own dedicated generator value for value."""
    spawned = [("client", 0), ("client", 1), ("route", 0), ("route", 7)]
    streams = RandomStreams(seed)
    handles = [streams.spawn(name, i) for name, i in spawned]
    references = [dedicated(seed, f"{name}[{i}]") for name, i in spawned]
    for which, block in ops:
        with handles[which] as rng:
            for kind, arg in block:
                got = draw(rng, kind, arg)
                want = draw(references[which], kind, arg)
                np.testing.assert_array_equal(got, want)


def test_entering_a_second_handle_raises():
    streams = RandomStreams(1)
    first, second = streams.spawn("client", 0), streams.spawn("client", 1)
    with first:
        with pytest.raises(SimulationError):
            with second:
                pass  # pragma: no cover
    # Leaving the first frees the shared generator again.
    with second as rng:
        np.testing.assert_array_equal(
            rng.random(2), dedicated(1, "client[1]").random(2)
        )


def test_handle_derives_its_state_on_first_entry(derived_streams):
    streams = RandomStreams(3)
    handles = [streams.spawn("client", i) for i in range(5)]
    assert derived_streams == []
    for _ in range(3):
        with handles[2]:
            pass
    assert derived_streams == ["client[2]"]


def test_drawn_client_stream_is_small(bytes_per_instance):
    streams = RandomStreams(11)
    indices = iter(range(10**6))

    def drawn():
        handle = streams.spawn("client", next(indices))
        with handle as rng:
            rng.random(3)
            rng.integers(1 << 32)
        return handle

    assert bytes_per_instance(drawn) < 400
