"""Property: the production kernel dispatches as the naive reference does.

``tests/reference_kernel.py`` is a one-heap kernel with lazy removal and
none of the production fast paths: no same-instant lane, free lists,
timing wheel or compaction.  A random operation sequence is applied to a
production :class:`repro.sim.Simulator` (wheel on and off) and to the
reference in lockstep.  After every operation both must have fired the
same callbacks and resumed the same processes at the same times with the
same values, read the same clock, and taken the same number of sequence
numbers.  ``peek()`` must agree too whenever the production heap holds no
tombstone (the reference drops cancelled entries, production may still
hold them).

The operations cover what the model does to the kernel: bare and
cancellable callbacks, re-arms and cancels, timeouts with user callbacks,
events triggered (successfully or not) from callbacks, later or never,
timed-wait races won each way, interrupts of processes parked on a race
or a timeout, timeouts shared by two waiters and re-read after they fire,
zero delays and delays ``d > 0`` with ``now + d == now``, and the three
ways to dispatch: ``run(until)``, ``step()``/``peek()`` and
``run_process()``.

The example count comes from the active hypothesis profile; CI runs this
file again with ``--hypothesis-profile=ci`` (see ``tests/conftest.py``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Interrupted, Simulator
from tests import reference_kernel

#: Delay palette.  Exact repeats make same-instant ties common; 1e-17 is
#: absorbed (``now + d == now``) once the clock passes about 0.2, so it
#: gives heap entries due now that are older than the lane's head.
DELAYS = (0.0, 1e-17, 0.1, 0.25, 0.5, 0.75, 1.0, 2.5, 4.0, 40.0)
#: Operation kinds; see drive().
KINDS = 16
#: Bound for the final drain: past every deadline any operation can set.
DRAIN = 1e4
#: Failures that escape dispatch: an event failed with no waiter, or a
#: process interrupted before it started (the generator cannot catch it).
RAISED = (KeyError, Interrupted)


def drive(sim, ops):
    """Apply ``ops`` to ``sim`` one at a time; yield a snapshot after each.

    The snapshot is ``(trace length, now, sequence numbers taken, peek)``;
    the full trace is yielded last.
    """
    def seq():
        return sim._seq if isinstance(sim, Simulator) else sim.pushes

    trace = []
    timers, timeouts, events, racers = [], [], [], []

    def fire(tag, *extra):
        trace.append((sim.now, tag) + extra)

    def trigger(ev, tag, ok):
        if ev.triggered:
            fire(("already-triggered", tag))
        elif ok:
            ev.succeed(tag)
        else:
            ev.fail(KeyError(tag))
            ev.defuse()

    def interrupt(proc, cause):
        if proc.is_alive:
            proc.interrupt(cause)

    def racer(i, ev, delay):
        while True:
            try:
                won = yield sim.within(ev, delay)
            except KeyError as exc:
                fire(("race-failed", i), exc.args)
                return
            except Interrupted as intr:
                fire(("race-interrupted", i), intr.cause)
                continue  # re-park on the same event
            fire(("race", i), won, ev.triggered)
            return

    def waiter(i, ev):
        try:
            got = yield ev
        except KeyError as exc:
            fire(("wait-failed", i), exc.args)
        else:
            fire(("waited", i), got)

    def sleeper(i, delay):
        try:
            yield sim.timeout(delay)
            fire(("slept", i))
        except Interrupted as intr:
            fire(("interrupted", i), intr.cause)
            yield sim.timeout(delay)
            fire(("resumed", i))

    def sharer(i, shared, pause):
        got = yield shared
        fire(("shared", i), got)
        if pause is not None:
            # Two waiters, so the kernel must not have recycled it.  The
            # second timeout is taken after it would have been: a
            # recycled one would come back here and corrupt the re-read.
            yield sim.timeout(pause)
            yield sim.timeout(pause)
            got = yield shared
            fire(("shared-again", i), got, shared.processed)

    def finisher(i, delay):
        yield sim.timeout(delay)
        fire(("finished", i))
        return i

    def dispatch(how, bound):
        try:
            if how == "run":
                sim.run(until=bound)
            else:
                while sim.peek() <= bound:
                    sim.step()
                sim.run(until=bound)
        except RAISED as exc:
            fire(("raised", type(exc).__name__), exc.args)

    for i, (kind, d, pick) in enumerate(ops):
        delay = DELAYS[d]
        if kind == 0:
            sim.call_later(delay, fire, ("cb", i))
        elif kind == 1:
            timers.append(sim.schedule_timer(delay, fire, ("timer", i)))
        elif kind == 2 and timers:
            timers[pick % len(timers)].rearm(delay, ("rearm", i))
        elif kind == 3 and timers:
            fire(("timer-cancel", i), timers[pick % len(timers)].cancel())
        elif kind == 4:
            timeout = sim.timeout(delay, value=i)
            timeout.callbacks.append(lambda ev, i=i: fire(("timeout", i), ev.value))
            timeouts.append(timeout)
        elif kind == 5 and timeouts:
            fire(("timeout-cancel", i), timeouts[pick % len(timeouts)].cancel())
        elif kind == 6:
            ev = sim.event()
            ev.callbacks.append(lambda ev, i=i: fire(("event", i), ev.triggered))
            events.append(ev)
            if pick < 6:  # else: never triggered
                sim.call_later(delay, trigger, ev, i, pick < 4)
        elif kind == 7:
            if not events or pick == 0:
                events.append(sim.event())
            racers.append(
                sim.process(racer(i, events[pick % len(events)], delay))
            )
        elif kind == 8 and racers:
            proc = racers[pick % len(racers)]
            if pick % 2:
                interrupt(proc, i)
            else:
                sim.call_later(delay, interrupt, proc, i)
        elif kind == 9:
            proc = sim.process(sleeper(i, WHEEL_DELAYS[pick % len(WHEEL_DELAYS)]))
            sim.call_later(delay, interrupt, proc, i)
        elif kind == 10:
            shared = sim.timeout(delay, value=("shared", i))
            sim.process(sharer(i, shared, None))
            sim.process(sharer(-i, shared, DELAYS[pick % len(DELAYS)]))
        elif kind == 11 and events:
            trigger(events[pick % len(events)], i, pick % 3 != 0)
        elif kind == 12:
            if not events or pick == 0:
                events.append(sim.event())
            sim.process(waiter(i, events[pick % len(events)]))
        elif kind == 13:
            dispatch("run", sim.now + delay)
        elif kind == 14:
            dispatch("step", sim.now + delay)
        elif kind == 15:
            try:
                fire(("returned", i), sim.run_process(sim.process(finisher(i, delay))))
            except RAISED as exc:
                fire(("raised", type(exc).__name__), exc.args)
        tombstones = getattr(sim, "_tombstones", 0)
        yield (len(trace), sim.now, seq(), sim.peek() if not tombstones else None)
    for _ in range(len(ops) + 1):
        try:
            sim.run(until=sim.now + DRAIN)
            break
        except RAISED as exc:
            fire(("raised", type(exc).__name__), exc.args)
    yield trace


#: Sleeper delays at least one wheel tick out, so the wheel's
#: interrupt path (unlink and recycle) is taken when the wheel is on.
WHEEL_DELAYS = (0.5, 1.0, 2.5, 4.0)

ops_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=KINDS - 1),
        st.integers(min_value=0, max_value=len(DELAYS) - 1),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=20,
    max_size=80,
)


def assert_same_dispatch(production, ops):
    reference = reference_kernel.Simulator()
    steps = zip(drive(production, ops), drive(reference, ops))
    for step, (got, want) in enumerate(steps):
        if step == len(ops):
            assert got == want, "final traces differ"
            break
        n, now, seq, peek = got
        assert (n, now, seq) == want[:3], f"after op {step}: {got} != {want}"
        if peek is not None:
            assert peek == want[3], f"peek after op {step}: {peek} != {want[3]}"


@pytest.mark.parametrize("wheel", [True, False], ids=["wheel", "heap-only"])
@given(ops=ops_strategy)
@settings(deadline=None)
def test_production_kernel_dispatches_like_the_reference(wheel, ops):
    assert_same_dispatch(Simulator(wheel=wheel), ops)


def test_reference_agrees_on_a_same_instant_tie():
    """A fixed case the property must always cover: a heap entry due now
    with an older sequence number than the lane's head goes first."""
    ops = [
        (13, 6, 0),  # run to t=1: 1e-17 is now absorbed
        (0, 1, 0),  # call_later(1e-17): heap-resident, due now
        (6, 0, 7),  # an event (never triggered by a callback) ...
        (11, 0, 1),  # ... triggered now: a lane entry, younger
        (0, 0, 0),  # call_later(0): lane
        (14, 0, 0),  # step() through the instant
    ]
    assert_same_dispatch(Simulator(), ops)
