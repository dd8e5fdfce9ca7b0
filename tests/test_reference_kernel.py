"""Property: the production kernel dispatches as the naive reference does.

``tests/reference_kernel.py`` is a one-heap kernel with lazy removal and
none of the production fast paths: no same-instant lane, free lists,
timing wheel or compaction.  A random operation sequence is applied to a
production :class:`repro.sim.Simulator` and to the reference in
lockstep.  After every operation both must have fired the same callbacks
and resumed the same processes at the same times with the same values,
read the same clock and the same ``peek()``, and taken the same number
of sequence numbers.

The operations cover what the model does to the kernel: bare callbacks,
timeouts with user callbacks and their cancels, events triggered
(successfully or not) from callbacks, later or never, timed-wait races
won each way, timeouts shared by two waiters and re-read after they
fire, cancelled timeouts at the head of the schedule, zero delays and
delays ``d > 0`` with ``now + d == now``, and the ways to dispatch:
``run(until)``, ``run()`` to exhaustion, ``run(until=peek())`` one
instant at a time and ``run_process()``.

Whole experiments are compared on both kernels by the
``reference_oracle`` fixture (``tests/test_wheel_equivalence.py``); that
works only while model code keeps to the public kernel API, which the
last test here pins.

The example count comes from the active hypothesis profile; CI runs this
file again with ``--hypothesis-profile=ci`` (see ``tests/conftest.py``).
"""

import ast
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.sim import Simulator
from tests import reference_kernel

#: Delay palette.  Exact repeats make same-instant ties common; 1e-17 is
#: absorbed (``now + d == now``) once the clock passes about 0.2, so it
#: gives heap entries due now that are older than the lane's head.
DELAYS = (0.0, 1e-17, 0.1, 0.25, 0.5, 0.75, 1.0, 2.5, 4.0, 40.0)
#: Operation kinds; see drive().
KINDS = 13
#: Bound for the final drain: past every deadline any operation can set.
DRAIN = 1e4


def drive(sim, ops):
    """Apply ``ops`` to ``sim`` one at a time; yield a snapshot after each.

    The snapshot is ``(trace length, now, sequence numbers taken, peek)``;
    the full trace is yielded last.  A failed event is defused at once
    and every process that waits on one catches the failure, so nothing
    should escape dispatch: an exception that does fails the property.
    """
    def seq():
        return sim._seq if isinstance(sim, Simulator) else sim.pushes

    trace = []
    timeouts, events = [], []

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

    def racer(i, ev, delay):
        try:
            won = yield sim.within(ev, delay)
        except KeyError as exc:
            fire(("race-failed", i), exc.args)
            return
        fire(("race", i), won, ev.triggered)

    def waiter(i, ev):
        try:
            got = yield ev
        except KeyError as exc:
            fire(("wait-failed", i), exc.args)
        else:
            fire(("waited", i), got)

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
        if how == "run":
            sim.run(until=bound)
        elif how == "drain":
            sim.run()
        else:
            while sim.peek() <= bound:
                at = sim.peek()
                sim.run(until=at)
                # Everything due by ``at`` has run; a kernel that left it
                # would loop here forever.
                assert sim.peek() > at, f"run(until={at}) left an entry due"
            sim.run(until=bound)

    for i, (kind, d, pick) in enumerate(ops):
        delay = DELAYS[d]
        if kind == 0:
            sim.call_later(delay, fire, ("cb", i))
        elif kind == 1:
            timeout = sim.timeout(delay, value=i)
            timeout.callbacks.append(lambda ev, i=i: fire(("timeout", i), ev.value))
            timeouts.append(timeout)
        elif kind == 2 and timeouts:
            fire(("timeout-cancel", i), timeouts[pick % len(timeouts)].cancel())
        elif kind == 3:
            ev = sim.event()
            ev.callbacks.append(lambda ev, i=i: fire(("event", i), ev.triggered))
            events.append(ev)
            if pick < 6:  # else: never triggered
                sim.call_later(delay, trigger, ev, i, pick < 4)
        elif kind == 4:
            if not events or pick == 0:
                events.append(sim.event())
            sim.process(racer(i, events[pick % len(events)], delay))
        elif kind == 5:
            shared = sim.timeout(delay, value=("shared", i))
            sim.process(sharer(i, shared, None))
            sim.process(sharer(-i, shared, DELAYS[pick % len(DELAYS)]))
        elif kind == 6 and events:
            trigger(events[pick % len(events)], i, pick % 3 != 0)
        elif kind == 7:
            if not events or pick == 0:
                events.append(sim.event())
            sim.process(waiter(i, events[pick % len(events)]))
        elif kind == 8:
            dispatch("run", sim.now + delay)
        elif kind == 9:
            dispatch("peek", sim.now + delay)
        elif kind == 10:
            fire(("returned", i), sim.run_process(sim.process(finisher(i, delay))))
        elif kind == 11:
            dispatch("drain", None)
        elif kind == 12:
            # A cancelled timeout ahead of a live callback: neither the
            # clock nor peek() may stop at the cancelled one.
            doomed = sim.timeout(delay)
            sim.call_later(delay + DELAYS[pick % len(DELAYS)], fire, ("after", i))
            fire(("cancelled", i), doomed.cancel(), sim.peek())
        yield (len(trace), sim.now, seq(), sim.peek())
    sim.run(until=sim.now + DRAIN)
    yield trace


ops_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=KINDS - 1),
        st.integers(min_value=0, max_value=len(DELAYS) - 1),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=20,
    max_size=80,
)


def assert_same_dispatch(ops):
    production, reference = Simulator(), reference_kernel.Simulator()
    steps = zip(drive(production, ops), drive(reference, ops))
    for step, (got, want) in enumerate(steps):
        if step == len(ops):
            assert got == want, "final traces differ"
            break
        assert got == want, f"after op {step}: {got} != {want}"


@given(ops=ops_strategy)
@settings(deadline=None)
def test_production_kernel_dispatches_like_the_reference(ops):
    assert_same_dispatch(ops)


def test_reference_agrees_on_a_same_instant_tie():
    """A fixed case the property must always cover: a heap entry due now
    with an older sequence number than the lane's head goes first."""
    ops = [
        (8, 6, 0),  # run to t=1: 1e-17 is now absorbed
        (0, 1, 0),  # call_later(1e-17): heap-resident, due now
        (3, 0, 7),  # an event (never triggered by a callback) ...
        (6, 0, 1),  # ... triggered now: a lane entry, younger
        (0, 0, 0),  # call_later(0): lane
        (9, 0, 0),  # run(until=peek()) through the instant
    ]
    assert_same_dispatch(ops)


def test_reference_agrees_when_run_ends_after_a_cancelled_timeout():
    """A cancelled heap-resident timeout after the last live entry must
    not move the clock: ``run()`` ends at 0.1, not at 0.25."""
    ops = [
        (0, 2, 0),  # call_later(0.1)
        (1, 3, 0),  # timeout(0.25), heap-resident ...
        (2, 0, 0),  # ... cancelled
        (11, 0, 0),  # run() to exhaustion
    ]
    assert_same_dispatch(ops)


def test_reference_agrees_on_peek_over_a_cancelled_head():
    """A cancelled timeout at the head of the heap is not the next event:
    ``peek()`` reports the live callback behind it."""
    assert_same_dispatch([(12, 3, 2)])  # 0.25 cancelled; live at 0.35
    assert_same_dispatch([(1, 2, 0), (2, 0, 0), (0, 4, 0)])  # 0.1 dead; 0.5


# -- model code keeps to the public kernel API --------------------------------

#: Kernel classes model code must not build itself: it asks the simulator
#: (``sim.event()``, ``sim.timeout()``, ...), so any kernel can serve.
KERNEL_CLASSES = {"Event", "Timeout", "Process", "TimedWait"}


def kernel_api_violations(source, filename="<model>"):
    """``file:line`` of each call of a kernel class imported from
    ``repro.sim`` and each underscore attribute of ``sim`` or ``<x>.sim``
    in ``source``."""
    tree = ast.parse(source, filename=filename)
    names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and "sim" in (node.module or "").split(".")
        for alias in node.names
        if alias.name in KERNEL_CLASSES
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            hit = isinstance(node.func, ast.Name) and node.func.id in names
        else:
            hit = (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and (
                    (isinstance(node.value, ast.Name) and node.value.id == "sim")
                    or (isinstance(node.value, ast.Attribute) and node.value.attr == "sim")
                )
            )
        if hit:
            found.append(f"{filename}:{node.lineno}")
    return found


def test_model_code_uses_only_the_public_kernel_api():
    """No module under ``src/repro`` outside ``sim/`` builds a kernel
    event or reads a simulator's private attributes; the reference kernel
    could not stand in for the production one otherwise."""
    bad = """
from ..sim.core import Simulator, Timeout as T
def f(sim, conn):
    done = T(sim, 1.0)
    return sim._seq, conn.sim._wheel, sim.now, sim.event(), Simulator()
"""
    assert len(kernel_api_violations(bad)) == 3, "the scan misses violations"
    root = Path(repro.__file__).parent
    offenders = [
        hit
        for path in sorted(root.rglob("*.py"))
        if path.relative_to(root).parts[0] != "sim"
        for hit in kernel_api_violations(path.read_text(), str(path.relative_to(root)))
    ]
    assert offenders == []
