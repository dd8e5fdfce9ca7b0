"""Unit tests for Resource and Store primitives."""

import pytest

from repro.sim import Resource, SimulationError, Simulator, Store, StoreFull


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_grants_up_to_capacity_immediately():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert res.in_use == 2
    assert res.available == 0
    assert res.queue_length == 1


def test_resource_release_grants_fifo():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.request()
    second = res.request()
    third = res.request()
    res.release()
    assert second.triggered
    assert not third.triggered
    res.release()
    assert third.triggered


def test_resource_release_without_request_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_resource_cancel_pending_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.request()
    pending = res.request()
    assert res.cancel(pending) is True
    assert res.queue_length == 0
    # Releasing must not grant the cancelled request; slot becomes free.
    res.release()
    assert res.in_use == 0
    sim.run()  # cancelled event is defused; nothing raises


def test_resource_cancel_granted_request_returns_false():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    granted = res.request()
    assert res.cancel(granted) is False
    assert res.in_use == 1


def test_resource_release_skips_cancelled_waiters():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.request()
    a = res.request()
    b = res.request()
    res.cancel(a)
    res.release()
    assert b.triggered
    sim.run()


def test_resource_process_integration():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    trace = []

    def worker(tag, hold):
        req = res.request()
        yield req
        trace.append((tag, "start", sim.now))
        yield sim.timeout(hold)
        res.release()
        trace.append((tag, "end", sim.now))

    sim.process(worker("a", 2.0))
    sim.process(worker("b", 1.0))
    sim.run()
    assert trace == [
        ("a", "start", 0.0),
        ("a", "end", 2.0),
        ("b", "start", 2.0),
        ("b", "end", 3.0),
    ]


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
