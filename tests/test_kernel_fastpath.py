"""Kernel fast paths: bare callbacks and timeouts.

The fast paths (see the :mod:`repro.sim.core` docstring and DESIGN.md)
must be invisible to model code: same scheduling order, same values, same
failure propagation — just less bookkeeping.
"""

from __future__ import annotations

import pytest

from repro.sim import Simulator
from repro.sim.core import SimulationError


# -- call_later bare-callback path ------------------------------------------

def test_call_later_runs_in_schedule_order():
    sim = Simulator()
    order = []
    sim.call_later(2.0, order.append, "late")
    sim.call_later(1.0, order.append, "early")
    sim.call_later(1.0, order.append, "early-tie")  # FIFO on ties
    sim.run()
    assert order == ["early", "early-tie", "late"]
    assert sim.now == 2.0


def test_call_later_interleaves_with_timeouts_deterministically():
    sim = Simulator()
    order = []

    def proc():
        yield sim.timeout(1.0)
        order.append("timeout")

    sim.process(proc())
    sim.call_later(1.0, order.append, "callback")
    sim.run()
    # The timeout is only created when the process boots at t=0, i.e.
    # *after* the callback entered the heap: FIFO tie-break at t=1 runs
    # the callback first.  (This also pins the boot-at-time-0 semantics.)
    assert order == ["callback", "timeout"]


def test_call_later_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_later(-0.1, lambda: None)


def test_callback_may_schedule_from_within_itself():
    # Scheduling inside fn must not clobber the in-flight invocation's
    # fn/args.
    sim = Simulator()
    seen = []

    def outer(tag):
        seen.append(tag)
        sim.call_later(0.5, seen.append, f"{tag}-child")

    sim.call_later(1.0, outer, "a")
    sim.call_later(2.0, outer, "b")
    sim.run()
    assert seen == ["a", "a-child", "b", "b-child"]


# -- timeouts ----------------------------------------------------------------

def test_timeout_with_user_callback_keeps_its_value():
    sim = Simulator()
    got = []
    t = sim.timeout(1.0, value="v")
    t.callbacks.append(lambda ev: got.append(ev.value))
    sim.run()
    assert got == ["v"]
    assert t.processed and t.value == "v"


def test_timed_wait_event_keeps_its_value():
    sim = Simulator()
    results = []
    # within() registers the wait's check on the caller's event; the
    # event stays readable after it won and fired.
    winner = sim.timeout(0.1, value="fast")

    def proc():
        won = yield sim.within(winner, 5.0)
        results.append(won)

    sim.process(proc())
    sim.run()
    assert results == [True]
    assert winner.processed and winner.value == "fast"


def test_successive_timeouts_carry_their_own_values():
    sim = Simulator()
    values = []

    def proc():
        got = yield sim.timeout(0.01, value="first")
        values.append(got)
        got = yield sim.timeout(0.01)  # default value
        values.append(got)
        got = yield sim.timeout(0.01, value="third")
        values.append(got)

    sim.process(proc())
    sim.run()
    assert values == ["first", None, "third"]


def test_a_yielded_timeout_can_be_kept_and_read_later():
    # A process keeps a timeout it yielded and reads it after later
    # resumes: no later timeout may take over its object.
    sim = Simulator()
    seen = []

    def proc():
        first = sim.timeout(0.01, value="first")
        yield first
        for i in range(1, 4):
            yield sim.timeout(0.01, value=f"later{i}")
        seen.append((first.processed, first.value))

    sim.process(proc())
    sim.run()
    assert seen == [(True, "first")]


# -- workload caching (rides along with the perf work) -----------------------

def test_shared_population_matches_direct_construction():
    import numpy as np

    from repro.http.files import FilePopulation, clear_population_cache
    from repro.sim.rng import RandomStreams

    clear_population_cache()
    shared = FilePopulation.shared(42, n_files=500)
    direct = FilePopulation(RandomStreams(42).stream("files"), n_files=500)
    assert np.array_equal(shared.sizes, direct.sizes)
    assert np.array_equal(shared._popularity_order, direct._popularity_order)
    # Second call returns the same memoized object; different keys do not.
    assert FilePopulation.shared(42, n_files=500) is shared
    assert FilePopulation.shared(43, n_files=500) is not shared
    clear_population_cache()


def test_shared_population_arrays_are_immutable():
    import numpy as np

    from repro.http.files import FilePopulation, clear_population_cache

    clear_population_cache()
    population = FilePopulation.shared(42, n_files=200)
    with pytest.raises(ValueError):
        population.sizes[0] = 1
    assert isinstance(population.sizes, np.ndarray)
    clear_population_cache()


def test_shared_workload_is_memoized_per_population():
    from repro.http.files import FilePopulation, clear_population_cache
    from repro.workload.surge import SurgeWorkload

    clear_population_cache()
    files = FilePopulation.shared(42, n_files=200)
    w1 = SurgeWorkload.shared(files)
    w2 = SurgeWorkload.shared(files)
    assert w1 is w2
    assert w1.files is files
    clear_population_cache()
