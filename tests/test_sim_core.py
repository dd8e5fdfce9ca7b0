"""Unit tests for the discrete-event simulation kernel."""

import gc

import pytest

from repro.sim import (
    AnyOf,
    Interrupted,
    SimulationError,
    Simulator,
    Store,
)
from repro.sim.core import WHEEL_TICK


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.peek() == float("inf")


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []
    ev = sim.timeout(2.5, value="x")
    ev.callbacks.append(lambda e: seen.append((sim.now, e.value)))
    sim.run()
    assert seen == [(2.5, "x")]
    assert sim.now == 2.5


def test_timeout_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_events_process_in_time_order():
    sim = Simulator()
    order = []
    for delay in (3.0, 1.0, 2.0):
        sim.call_later(delay, order.append, delay)
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_ties_break_in_schedule_order():
    sim = Simulator()
    order = []
    for tag in "abc":
        sim.call_later(1.0, order.append, tag)
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_advances_clock_exactly():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run(until=20.0)
    assert sim.now == 20.0


def test_run_backwards_raises():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(ValueError("nope"))


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_fail_requires_exception_instance():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_unhandled_failure_raises_from_step():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_step_on_empty_simulator_raises_simulation_error():
    sim = Simulator()
    with pytest.raises(SimulationError, match="no scheduled events"):
        sim.step()
    # Also once the last event (here a wheel-staged one) is consumed.
    sim.timeout(3.0)
    sim.step()
    assert sim.now == 3.0
    with pytest.raises(SimulationError, match="no scheduled events"):
        sim.step()


def test_defused_failure_does_not_raise():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("boom"))
    ev.defuse()
    sim.run()  # does not raise


def test_process_waits_and_returns_value():
    sim = Simulator()

    def proc():
        got = yield sim.timeout(1.0, value=41)
        return got + 1

    p = sim.process(proc())
    assert sim.run_process(p) == 42
    assert sim.now == 1.0
    assert not p.is_alive


def test_process_sequencing_across_yields():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(("start", sim.now))
        yield sim.timeout(1.0)
        trace.append(("mid", sim.now))
        yield sim.timeout(2.0)
        trace.append(("end", sim.now))

    sim.process(proc())
    sim.run()
    assert trace == [("start", 0.0), ("mid", 1.0), ("end", 3.0)]


def test_process_receives_failure_as_exception():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def proc():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))
        return "survived"

    p = sim.process(proc())
    sim.call_later(1.0, lambda: ev.fail(ValueError("expected")))
    assert sim.run_process(p) == "survived"
    assert caught == ["expected"]


def test_process_crash_propagates_from_run_process():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise RuntimeError("model bug")

    p = sim.process(proc())
    with pytest.raises(RuntimeError, match="model bug"):
        sim.run_process(p)


def test_process_yielding_non_event_fails():
    sim = Simulator()

    def proc():
        yield 42  # type: ignore[misc]

    p = sim.process(proc())
    with pytest.raises(SimulationError, match="non-event"):
        sim.run_process(p)


def test_yield_event_from_other_simulator_fails():
    sim_a, sim_b = Simulator(), Simulator()

    def proc():
        yield sim_b.timeout(1.0)

    p = sim_a.process(proc())
    with pytest.raises(SimulationError, match="another simulator"):
        sim_a.run_process(p)


def test_waiting_on_already_processed_event():
    sim = Simulator()
    ev = sim.timeout(1.0, value="late")
    results = []

    def proc():
        yield sim.timeout(5.0)  # ev processed long before this finishes
        got = yield ev
        results.append((sim.now, got))

    sim.process(proc())
    sim.run()
    assert results == [(5.0, "late")]


def test_process_can_wait_on_another_process():
    sim = Simulator()

    def inner():
        yield sim.timeout(2.0)
        return "inner-done"

    def outer():
        got = yield sim.process(inner())
        return got

    p = sim.process(outer())
    assert sim.run_process(p) == "inner-done"
    assert sim.now == 2.0


def test_interrupt_wakes_process_early():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
            log.append("slept full")
        except Interrupted as intr:
            log.append(("interrupted", sim.now, intr.cause))

    p = sim.process(sleeper())
    sim.call_later(3.0, p.interrupt, "wake-up")
    sim.run()
    assert log == [("interrupted", 3.0, "wake-up")]


def test_interrupt_terminated_process_raises():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    p = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_interrupted_process_can_continue():
    sim = Simulator()
    trace = []

    def resilient():
        try:
            yield sim.timeout(100.0)
        except Interrupted:
            pass
        yield sim.timeout(1.0)
        trace.append(sim.now)

    p = sim.process(resilient())
    sim.call_later(2.0, p.interrupt)
    sim.run()
    assert trace == [3.0]


def test_any_of_triggers_on_first():
    sim = Simulator()
    results = []

    def proc():
        fast = sim.timeout(1.0, value="fast")
        slow = sim.timeout(9.0, value="slow")
        got = yield sim.any_of([fast, slow])
        results.append((sim.now, list(got.values())))

    sim.process(proc())
    sim.run()
    assert results[0][0] == 1.0
    assert results[0][1] == ["fast"]


def test_all_of_waits_for_every_child():
    sim = Simulator()
    results = []

    def proc():
        evs = [sim.timeout(t, value=t) for t in (1.0, 3.0, 2.0)]
        got = yield sim.all_of(evs)
        results.append((sim.now, sorted(got.values())))

    sim.process(proc())
    sim.run()
    assert results == [(3.0, [1.0, 2.0, 3.0])]


def test_any_of_empty_triggers_immediately():
    sim = Simulator()
    cond = AnyOf(sim, [])
    assert cond.triggered
    assert cond.value == {}


def test_condition_fails_when_child_fails():
    sim = Simulator()
    errors = []

    def proc():
        bad = sim.event()
        sim.call_later(1.0, lambda: bad.fail(KeyError("child")))
        try:
            yield sim.all_of([sim.timeout(5.0), bad])
        except KeyError:
            errors.append(sim.now)

    sim.process(proc())
    sim.run()
    assert errors == [1.0]


def test_any_of_with_pretriggered_child():
    sim = Simulator()
    ev = sim.timeout(0.0, value="now")
    sim.run(until=1.0)  # ev is processed
    cond = sim.any_of([ev, sim.timeout(10.0)])
    assert cond.triggered


# -- settled conditions leave no reference cycles ----------------------------
# A losing child keeps the condition's bound _check in its callback list;
# the condition must not point back at it once settled, or every race
# becomes garbage only the cyclic collector can free.  Each case runs
# with the collector off and counts unreachable objects while the
# simulator is still alive.  Tests keep no reference to a condition or a
# losing child: one would make a cycle reachable and hide it.


@pytest.fixture
def collector_off():
    """Switch the cyclic collector off; yields ``gc.collect``."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield gc.collect
    finally:
        if enabled:
            gc.enable()


def test_any_of_won_by_event_with_cancelled_wheel_timeout(collector_off):
    sim = Simulator()
    got = []

    def proc():
        reply = sim.event()
        sim.call_later(1.0, reply.succeed, "reply")
        pause = sim.timeout(4 * WHEEL_TICK)
        value = yield sim.any_of([reply, pause])
        assert pause.cancel()  # wheel-resident: unlinked, never fires
        got.append((sim.now, value == {reply: "reply"}))

    sim.process(proc())
    sim.run()
    assert got == [(1.0, True)]
    assert sim.timer_stats()["wheel_cancelled"] == 1
    assert collector_off() == 0


def test_any_of_won_by_timeout_with_cancelled_store_get(collector_off):
    sim = Simulator()
    store = Store(sim)
    got = []

    def proc():
        get = store.get()
        pause = sim.timeout(2.0, value="idle")
        value = yield sim.any_of([get, pause])
        assert store.cancel(get)
        got.append((sim.now, value == {pause: "idle"}))

    sim.process(proc())
    sim.run()
    assert got == [(2.0, True)]
    assert collector_off() == 0


def test_all_of_failed_by_child(collector_off):
    sim = Simulator()
    errors = []

    def failing_child():
        bad = sim.event()
        sim.call_later(1.0, bad.fail, KeyError("child"))
        return bad

    def proc():
        # No local names the failed child: its exception's traceback
        # points at this frame, so a local would close a cycle of the
        # test's own making.  The first child never triggers: it
        # outlives the race.
        try:
            yield sim.all_of([sim.event(), failing_child()])
        except KeyError as exc:
            errors.append((sim.now, exc.args))

    sim.process(proc())
    sim.run()
    assert errors == [(1.0, ("child",))]
    assert collector_off() == 0


def test_condition_over_already_processed_child(collector_off):
    sim = Simulator()
    got = []
    done = sim.timeout(0.0, value="now")
    sim.run(until=1.0)  # done is processed

    def proc():
        # The pending child registers _check before the processed one
        # settles the condition inside its constructor.
        value = yield sim.any_of([sim.event(), done])
        got.append((sim.now, value == {done: "now"}))

    sim.process(proc())
    sim.run()
    assert got == [(1.0, True)]
    assert collector_off() == 0


def test_call_later_runs_function_with_args():
    sim = Simulator()
    acc = []
    sim.call_later(1.5, acc.append, "payload")
    sim.run()
    assert acc == ["payload"]


def test_run_process_detects_starvation():
    sim = Simulator()

    def stuck():
        yield sim.event()  # never triggered

    p = sim.process(stuck())
    with pytest.raises(SimulationError, match="ran out of events"):
        sim.run_process(p)


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_event_repr_smoke():
    sim = Simulator()
    ev = sim.event()
    assert "pending" in repr(ev)
    ev.succeed()
    assert "ok" in repr(ev)
