"""Unit tests for the Store primitive."""

import pytest

from repro.sim import SimulationError, Simulator, Store, StoreFull


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("x")
    got = store.get()
    assert got.triggered and got.value == "x"


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    results = []

    def consumer():
        item = yield store.get()
        results.append((sim.now, item))

    sim.process(consumer())
    sim.call_later(2.0, store.put, "late")
    sim.run()
    assert results == [(2.0, "late")]


def test_store_fifo_ordering():
    sim = Simulator()
    store = Store(sim)
    for item in ("a", "b", "c"):
        store.put(item)
    assert [store.get().value for _ in range(3)] == ["a", "b", "c"]


def test_store_bounded_put_raises_when_full():
    sim = Simulator()
    store = Store(sim, capacity=2)
    store.put(1)
    store.put(2)
    assert store.is_full
    with pytest.raises(StoreFull):
        store.put(3)
    assert store.try_put(3) is False


def test_store_bounded_delivers_directly_to_waiting_getter():
    sim = Simulator()
    store = Store(sim, capacity=1)
    store.put("fill")
    waiter = store.get()
    assert waiter.value == "fill"
    pending = store.get()
    assert not pending.triggered
    # With a getter waiting, a put bypasses capacity: queue stays empty.
    store.put("direct")
    assert pending.value == "direct"
    assert len(store) == 0


def test_store_try_get():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() is None
    store.put(7)
    assert store.try_get() == 7
    assert store.try_get() is None


def test_store_cancel_pending_get():
    sim = Simulator()
    store = Store(sim)
    pending = store.get()
    assert store.cancel(pending) is True
    assert store.waiting_getters == 0
    store.put("x")  # must land in the queue, not the cancelled getter
    assert len(store) == 1
    sim.run()


def test_store_cancel_satisfied_get_returns_false():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    got = store.get()
    assert store.cancel(got) is False


def test_store_put_skips_cancelled_getters():
    sim = Simulator()
    store = Store(sim)
    first = store.get()
    second = store.get()
    store.cancel(first)
    store.put("item")
    assert second.value == "item"
    sim.run()


def test_store_invalid_capacity():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Store(sim, capacity=0)


def test_store_len_tracks_queue():
    sim = Simulator()
    store = Store(sim)
    assert len(store) == 0
    store.put(1)
    store.put(2)
    assert len(store) == 2
    store.get()
    assert len(store) == 1


# ---------------------------------------------------------------------------
# Store: queues allocated on first use
# ---------------------------------------------------------------------------

def test_unused_store_behaves_as_empty():
    sim = Simulator()
    store = Store(sim, capacity=1)
    assert len(store) == 0
    assert not store.is_full
    assert store.waiting_getters == 0
    assert store.peek_front() is None
    assert store.peek_back() is None
    assert store.try_get() is None
    # A request this store never issued is not cancellable here.
    assert store.cancel(Store(sim).get()) is False
    store.put("x")
    assert store.is_full and store.peek_front() == "x"


def test_unused_store_is_small(bytes_per_instance):
    sim = Simulator()
    assert bytes_per_instance(lambda: Store(sim)) < 200


def test_drained_store_is_small(bytes_per_instance):
    """A store that has held and released one item keeps an empty list,
    not a drained deque's block."""
    sim = Simulator()

    def drained():
        store = Store(sim)
        store.put("x")
        assert store.try_get() == "x"
        return store

    assert bytes_per_instance(drained) < 200
