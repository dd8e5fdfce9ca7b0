"""Unit and property tests for the hierarchical timing wheel.

The wheel (repro.sim.wheel) stages timeouts at least one tick out in
front of the dispatch heap; its contract is that it changes *nothing*
about what fires when — only what schedule/cancel cost.  The property
tests at the bottom hammer exactly that: a random interleaving of
timeouts, cancels, callbacks, processes, timed waits and time advances
must produce an identical firing history on the production kernel and
on the naive reference kernel (tests/reference_kernel.py), which has no
wheel.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.wheel import TimingWheel
from tests import reference_kernel


def arm(sim, delay, fired, tag):
    """A timeout ``delay`` out whose callback records ``tag``: how these
    tests put one entry on the wheel (or, sub-tick, on the heap)."""
    ev = sim.timeout(delay)
    ev.callbacks.append(lambda _ev: fired.append(tag))
    return ev


def test_wheel_rejects_bad_tick():
    with pytest.raises(ValueError):
        TimingWheel(0.0)
    with pytest.raises(ValueError):
        TimingWheel(-1.0)


def test_simulator_wheel_flag():
    """Long timers always ride the wheel: there is no heap-only mode."""
    assert Simulator().wheel_enabled is True
    assert Simulator().timer_stats()["wheel_enabled"] is True
    with pytest.raises(TypeError):
        Simulator(wheel=False)


def test_benchmark_harness_contract():
    """Pins what benchmarks/e2e/probe.py reads from the kernel.

    That harness is not part of this suite, so without this test a
    clean-up here could break every benchmark repetition unnoticed.
    """
    from repro.sim.turbo import simulator_class

    assert simulator_class(None) is Simulator
    sim = Simulator()
    assert type(sim) is Simulator
    assert sim.backend == "python"
    assert sim.wheel_enabled is True
    assert sim._seq == 0
    stats = sim.timer_stats()
    for key in ("wheel_scheduled", "wheel_cancelled", "wheel_batch_flushes",
                "tombstones_compacted"):
        assert key in stats, key


def test_wheel_multi_level_cascade():
    sim = Simulator()
    fired = []
    # Level 0 (seconds), level 1 (minutes), level 2 (hours): the coarse
    # entries must cascade down as their slots are reached, never fire
    # early or late.
    delays = [2.0, 45.0, 4000.0]
    for d in delays:
        arm(sim, d, fired, d)
    sim.run()
    assert fired == sorted(delays)
    assert sim.now == max(delays)
    assert sim.timer_stats()["wheel_cascaded"] > 0


def test_wheel_beyond_horizon_falls_back_to_heap():
    sim = Simulator()
    fired = []
    delays = [2.0, 45.0, 4000.0, 500_000.0]  # last is past the horizon
    for d in delays:
        arm(sim, d, fired, d)
    assert len(sim._wheel) == 3  # the far-future timeout went to the heap
    sim.run()
    # The heap entry at 500000 makes the dispatch loop flush the whole
    # wheel up front (early flush into the heap is always safe — the
    # heap restores the order); everything still fires in time order.
    assert fired == sorted(delays)
    assert sim.now == max(delays)


def test_wheel_equal_time_preserves_schedule_order():
    sim = Simulator()
    fired = []
    # Same deadline via the wheel (long) and the heap (short, scheduled
    # from a later start): sequence numbers must break the tie.
    arm(sim, 4.0, fired, "wheel-first")
    sim.call_later(4.0, fired.append, "heap-second")
    arm(sim, 4.0, fired, "wheel-third")
    sim.run()
    assert fired == ["wheel-first", "heap-second", "wheel-third"]


def test_timeout_cancel_true_cancels_on_wheel():
    sim = Simulator()
    ev = sim.timeout(10.0)
    assert ev._node is not None
    assert ev.cancel() is True
    assert ev.cancel() is False
    assert len(sim._wheel) == 0
    sim.run()
    assert sim.now == 0.0  # nothing left to dispatch


def test_timeout_cancel_tombstones_on_heap():
    sim = Simulator()
    sim.call_later(0.125, lambda: None)
    ev = sim.timeout(0.25)  # sub-tick: heap-resident
    assert ev._node is None
    assert ev.cancel() is True
    stats = sim.timer_stats()
    assert stats["tombstones"] == 1 and stats["heap_pending"] == 2
    sim.run()
    # The tombstone is skipped: it never moves the clock.
    assert sim.now == 0.125
    assert sim.timer_stats()["heap_pending"] == 0


def test_tombstone_compaction_bounds_heap_growth():
    sim = Simulator()
    for _ in range(1000):
        sim.timeout(0.25).cancel()  # sub-tick: each leaves a tombstone
    stats = sim.timer_stats()
    assert stats["tombstones_compacted"] >= 1
    # Without compaction the heap would hold ~1000 dead entries.
    assert stats["heap_pending"] < 200


def test_peek_sees_wheel_residents():
    sim = Simulator()
    arm(sim, 7.25, [], "peeked")
    assert sim.peek() == pytest.approx(7.25)


def test_timer_stats_accounting():
    sim = Simulator()
    fired = []
    t1 = arm(sim, 5.0, fired, "cancelled")
    arm(sim, 6.0, fired, "fired")
    t1.cancel()
    sim.run()
    stats = sim.timer_stats()
    assert stats["wheel_enabled"] is True
    assert stats["wheel_scheduled"] == 2
    assert stats["wheel_cancelled"] == 1
    assert stats["wheel_flushed"] == 1
    assert stats["wheel_pending"] == 0
    assert stats["tombstones"] == 0  # a wheel cancel leaves no heap trace
    assert fired == ["fired"]


# ---------------------------------------------------------------------------
# Property: production == reference, for arbitrary op interleavings.
# ---------------------------------------------------------------------------


def _random_history(seed: int, sim, ops: int = 400):
    """Replay a seed-determined op sequence on ``sim``; return the firing
    history."""
    rng = random.Random(seed)
    fired = []
    live = []  # timeouts that may still be pending

    for step in range(ops):
        roll = rng.random()
        if roll < 0.45:
            delay = rng.choice(
                [0.05, 0.2, 0.3, 0.9, 2.7, 5.0, 15.0, 33.0, 40.0, 90.0,
                 3000.0, 200_000.0]
            )
            live.append(arm(sim, delay, fired, step))
        elif roll < 0.65 and live:
            live.pop(rng.randrange(len(live))).cancel()
        elif roll < 0.80:
            # Bare callbacks stay on the heap at any delay, so they
            # interleave with wheel-staged timeouts due in the same slots.
            delay = rng.choice([0.1, 1.5, 16.0, 64.0])
            sim.call_later(delay, fired.append, (step, "cb"))
        else:
            sim.run(until=sim.now + rng.choice([0.1, 0.7, 3.0, 21.0]))
        fired.append(("now", round(sim.now, 9)))
    # Drain to exhaustion: the clock stops at the last live entry, never
    # at a cancelled timeout's tombstone (DESIGN.md §9).
    sim.run()
    fired.append(("end", round(sim.now, 9)))
    return fired


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 17])
def test_property_wheel_matches_heap_firing_order(seed):
    assert _random_history(seed, Simulator()) == _random_history(
        seed, reference_kernel.Simulator()
    )


# ---------------------------------------------------------------------------
# Property: production == reference, with processes and timed waits too.
# ---------------------------------------------------------------------------


def _interleaving_trace(sim, ops):
    """Drive ``sim`` through an op schedule; return the firing trace.

    Op kinds: 0 ``call_later``, 1 a timeout with a callback, 2 ``cancel``
    of one, 3 a two-timeout process, 4 a process parked in
    ``sim.within(event, delay)`` at least one wheel tick out, whose event
    is triggered at ``b * delay``.  On the production kernel a wait that
    the event wins unlinks its timeout from the wheel and recycles it (or
    tombstones it once flushed).
    """
    trace = []
    timeouts = []

    def fire(tag):
        trace.append((round(sim.now, 9), tag))

    def two_waits(pid, delays):
        for i, d in enumerate(delays):
            yield sim.timeout(d)
            fire(("proc", pid, i))

    def parked(pid, ev, delay):
        won = yield sim.within(ev, delay)
        fire(("woke", pid, won, ev.triggered))
        # Re-park: on the wheel path this reuses the recycled Timeout.
        yield sim.timeout(delay)
        fire(("resumed", pid))

    for i, (kind, a, b) in enumerate(ops):
        if kind == 0:
            sim.call_later(a, fire, ("cb", i))
        elif kind == 1:
            timeout = sim.timeout(a)
            timeout.callbacks.append(lambda _ev, i=i: fire(("timeout", i)))
            timeouts.append(timeout)
        elif kind == 2 and timeouts:
            timeouts[int(b * len(timeouts)) % len(timeouts)].cancel()
        elif kind == 4:
            delay = 0.5 + a  # >= one default wheel tick
            ev = sim.event()
            sim.process(parked(i, ev, delay))
            sim.call_later(b * delay, ev.succeed, i)
        else:
            sim.process(two_waits(i, [a, b]))
    sim.run()
    return trace


op_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)


@given(ops=op_strategy)
@settings(max_examples=60, deadline=None)
def test_random_interleavings_dispatch_identically(ops):
    """Any mix of timeouts, cancels, callbacks, processes and timed waits
    fires in the same order on both kernels."""
    assert _interleaving_trace(Simulator(), ops) == _interleaving_trace(
        reference_kernel.Simulator(), ops
    )
