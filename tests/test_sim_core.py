"""Unit tests for the discrete-event simulation kernel."""

import gc

import pytest

from repro.sim import (
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


# -- timed waits: sim.within(event, delay) ----------------------------------


def test_within_takes_one_sequence_number_then_one_to_settle():
    # The timeout's number when the wait is built, then one push when
    # the first child is processed: every e2e row depends on these.
    sim = Simulator()
    reply = sim.event()
    wait = sim.within(reply, 3.0)
    assert sim._seq == 1
    reply.succeed()
    assert sim._seq == 2
    sim.run()
    assert sim._seq == 3
    assert wait.processed and wait.value is True


def test_within_wheel_loser_goes_back_to_the_free_list():
    sim = Simulator()
    reply = sim.event()
    wait = sim.within(reply, 4 * WHEEL_TICK)
    timer = wait._timer
    assert timer._node is not None  # wheel-resident
    reply.succeed()
    sim.run()
    assert wait.value is True
    assert wait._timer is None
    assert sim.timer_stats()["wheel_cancelled"] == 1
    assert timer.callbacks is None  # holds no reference to the wait
    assert sim.timeout(1.0) is timer


def test_within_winning_timeout_is_recycled():
    sim = Simulator()
    wait = sim.within(sim.event(), 0.1)
    timer = wait._timer
    sim.run()
    assert wait.value is False
    assert sim._tpool == [timer]


def test_within_heap_resident_loser_becomes_a_tombstone():
    sim = Simulator()
    reply = sim.event()
    wait = sim.within(reply, 0.25)  # sub-tick: heap-resident
    timer = wait._timer
    reply.succeed()
    sim.run(until=0.1)
    assert wait.value is True
    assert sim.timer_stats()["tombstones"] == 1
    assert timer.callbacks == []
    sim.run()
    assert sim._tpool == []  # a tombstone is never recycled


def test_within_tie_event_triggered_after_timeout_fired():
    # The timeout fires first, then a heap entry due at the same instant
    # (and pushed before the wait's settle entry) delivers the request:
    # the waiter resumes with False but must find the request triggered,
    # which is why net/tcp.py reads get.triggered and not the value.
    sim = Simulator()
    store = Store(sim)
    seen = []

    def proc():
        get = store.get()
        won = yield sim.within(get, 2.0)
        seen.append((sim.now, won, get.triggered, get.value))

    sim.process(proc())
    sim.run(until=1.0)
    sim.call_later(1.0, store.put, "request")
    sim.run()
    assert seen == [(2.0, False, True, "request")]


def test_within_rejects_event_from_another_simulator():
    sim_a, sim_b = Simulator(), Simulator()
    with pytest.raises(SimulationError, match="another simulator"):
        sim_a.within(sim_b.event(), 1.0)


# -- settled timed waits leave no reference cycles ----------------------------
# A losing event keeps the wait's bound _check in its callback list; the
# wait must not point back at it once settled, or every race becomes
# garbage only the cyclic collector can free.  Each case runs with the
# collector off and counts unreachable objects while the simulator is
# still alive.  Tests keep no reference to a wait or a losing child: one
# would make a cycle reachable and hide it.


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


def test_within_won_by_event_cancels_wheel_timeout(collector_off):
    sim = Simulator()
    got = []

    def proc():
        reply = sim.event()
        sim.call_later(1.0, reply.succeed, "reply")
        won = yield sim.within(reply, 4 * WHEEL_TICK)
        got.append((sim.now, won, reply.value))

    sim.process(proc())
    sim.run()
    assert got == [(1.0, True, "reply")]
    # The losing timeout was unlinked from the wheel: nothing is left.
    assert sim.timer_stats()["wheel_cancelled"] == 1
    assert sim.peek() == float("inf")
    assert collector_off() == 0


def test_within_won_by_timeout_with_cancelled_store_get(collector_off):
    sim = Simulator()
    store = Store(sim)
    got = []

    def proc():
        get = store.get()
        won = yield sim.within(get, 2.0)
        assert store.cancel(get)
        got.append((sim.now, won))

    sim.process(proc())
    sim.run()
    assert got == [(2.0, False)]
    assert collector_off() == 0


def test_within_failed_by_event(collector_off):
    sim = Simulator()
    errors = []

    def failing_event():
        bad = sim.event()
        sim.call_later(1.0, bad.fail, KeyError("child"))
        return bad

    def proc():
        # No local names the failed event: its exception's traceback
        # points at this frame, so a local would close a cycle of the
        # test's own making.
        try:
            yield sim.within(failing_event(), 4 * WHEEL_TICK)
        except KeyError as exc:
            errors.append((sim.now, exc.args))

    sim.process(proc())
    sim.run()  # would re-raise KeyError had the wait not defused the event
    assert errors == [(1.0, ("child",))]
    assert sim.timer_stats()["wheel_cancelled"] == 1  # the timeout lost
    assert collector_off() == 0


def test_within_on_processed_event_settles_at_once(collector_off):
    sim = Simulator()
    got = []
    done = sim.timeout(0.0, value="now")
    sim.run(until=1.0)  # done is processed
    pooled = len(sim._tpool)

    def proc():
        seq = sim._seq
        wait = sim.within(done, 5.0)
        # Settled inside within(): no timeout left scheduled or taken
        # from the free list, but its sequence number is used.
        assert wait.triggered and sim._seq == seq + 2
        assert len(sim._tpool) == pooled
        stats = sim.timer_stats()
        assert stats["heap_pending"] == stats["wheel_pending"] == 0
        won = yield wait
        got.append((sim.now, won))

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


# -- the same-instant lane ----------------------------------------------------


@pytest.mark.parametrize("dispatch", ["run", "step"])
def test_lane_yields_to_an_older_heap_entry_due_now(dispatch):
    sim = Simulator()
    order = []
    sim.run(until=1.0)
    # now + d == now for this d > 0, so the entry is heap-resident but
    # due now, and it was pushed before the zero-delay ones.
    tiny = 1e-20
    assert sim.now + tiny == sim.now
    sim.call_later(tiny, order.append, "heap-older")
    sim.call_later(0.0, order.append, "lane-1")
    sim.call_later(tiny, order.append, "heap-younger")
    sim.event().succeed()
    sim.call_later(0.0, order.append, "lane-2")
    assert sim.peek() == 1.0
    if dispatch == "run":
        sim.run()
    else:
        for _ in range(5):
            sim.step()
    assert order == ["heap-older", "lane-1", "heap-younger", "lane-2"]
    assert sim.now == 1.0


def test_timer_stats_counts_lane_dispatches():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)

    sim.process(proc())  # boot: lane
    sim.event().succeed()  # lane
    sim.call_later(0.0, lambda: None)  # lane
    sim.call_later(0.25, lambda: None)  # heap
    sim.timeout(0.0)  # a timeout keeps its heap route at zero delay
    sim.run()  # ... and the process's completion: lane
    assert sim.timer_stats()["lane_dispatched"] == 4
    sim.event().succeed()
    sim.step()
    assert sim.timer_stats()["lane_dispatched"] == 5
    # run() stores its count when a failure propagates, too.
    sim.call_later(0.0, lambda: None)
    sim.event().fail(ValueError("boom"))
    with pytest.raises(ValueError):
        sim.run()
    assert sim.timer_stats()["lane_dispatched"] == 7


def test_only_the_kernel_assigns_now():
    """``Simulator.now`` is a plain attribute that the dispatch loop
    writes; no other module under ``src/repro`` may assign or delete an
    attribute named ``now``."""
    import ast
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    kernel = root / "sim" / "core.py"

    def writes(path):
        found = []
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "now"
                and isinstance(node.ctx, (ast.Store, ast.Del))
            ):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("setattr", "delattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "now"
            ):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
        return found

    assert writes(kernel), "the scan no longer sees the kernel's own writes"
    offenders = [
        hit
        for path in sorted(root.rglob("*.py"))
        if path != kernel
        for hit in writes(path)
    ]
    assert offenders == []


# -- delays must be finite numbers >= 0 ---------------------------------------

DELAY_ENTRY_POINTS = {
    "timeout": lambda sim, timer, d: sim.timeout(d),
    "call_later": lambda sim, timer, d: sim.call_later(d, lambda: None),
    "schedule_timer": lambda sim, timer, d: sim.schedule_timer(d, lambda: None),
    "rearm": lambda sim, timer, d: timer.rearm(d),
    "within": lambda sim, timer, d: sim.within(sim.event(), d),
}


@pytest.mark.parametrize(
    "delay", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "negative"]
)
@pytest.mark.parametrize(
    "entry", DELAY_ENTRY_POINTS.values(), ids=list(DELAY_ENTRY_POINTS)
)
def test_bad_delays_are_rejected(entry, delay):
    sim = Simulator()
    fired = []
    # A wheel-resident timer: rearm's target, a bystander for the rest.
    timer = sim.schedule_timer(1.0, fired.append, "armed")
    seq = sim._seq
    with pytest.raises(SimulationError, match="finite number >= 0"):
        entry(sim, timer, delay)
    # Nothing was scheduled, and the armed timer still fires once.
    assert sim._seq == seq
    sim.run()
    assert fired == ["armed"]
    assert sim.now == 1.0
