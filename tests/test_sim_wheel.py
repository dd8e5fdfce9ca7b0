"""Unit and property tests for the hierarchical timing wheel.

The wheel (repro.sim.wheel) stages cancellable timers in front of the
dispatch heap; its contract is that enabling it changes *nothing* about
what fires when — only what schedule/cancel cost.  The property tests at
the bottom hammer exactly that: a random interleaving of schedules,
cancels, re-arms, interrupts, processes and time advances must produce
an identical firing history with the wheel on and off.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Interrupted, Simulator
from repro.sim.wheel import TimingWheel


def test_wheel_rejects_bad_tick():
    with pytest.raises(ValueError):
        TimingWheel(0.0, object)
    with pytest.raises(ValueError):
        TimingWheel(-1.0, object)


def test_simulator_wheel_flag():
    assert Simulator().wheel_enabled
    assert not Simulator(wheel=False).wheel_enabled


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


def test_timer_fires_with_args():
    sim = Simulator()
    fired = []
    timer = sim.schedule_timer(3.0, lambda a, b: fired.append((sim.now, a, b)),
                               "x", 7)
    assert timer.active
    sim.run()
    assert fired == [(3.0, "x", 7)]
    assert not timer.active


def test_timer_cancel_wheel_resident():
    sim = Simulator()
    fired = []
    timer = sim.schedule_timer(5.0, fired.append, 1)
    assert len(sim._wheel) == 1
    assert timer.cancel() is True
    assert timer.cancel() is False  # idempotent
    assert len(sim._wheel) == 0
    sim.run()
    assert fired == []
    stats = sim.timer_stats()
    assert stats["wheel_cancelled"] == 1
    assert stats["tombstones"] == 0  # true cancel leaves no heap trace


def test_timer_cancel_heap_resident():
    sim = Simulator()
    fired = []
    timer = sim.schedule_timer(0.1, fired.append, 1)  # sub-tick -> heap
    assert len(sim._wheel) == 0
    assert timer.cancel() is True
    sim.run()
    assert fired == []
    assert sim.timer_stats()["wheel_cancelled"] == 0


def test_timer_cancel_after_fire_is_false():
    sim = Simulator()
    timer = sim.schedule_timer(1.0, lambda: None)
    sim.run()
    assert timer.cancel() is False


def test_timer_rearm_supersedes_pending_firing():
    sim = Simulator()
    fired = []
    timer = sim.schedule_timer(5.0, fired.append, "a")
    assert timer.rearm(9.0, "b") is timer
    sim.run()
    assert fired == [("b")] and sim.now == 9.0


def test_timer_rearm_revives_after_fire_and_cancel():
    sim = Simulator()
    fired = []
    timer = sim.schedule_timer(1.0, fired.append, "a")
    sim.run()
    timer.rearm(2.0, "b")  # fired -> fresh placement
    sim.run()
    timer.rearm(3.0, "c")
    timer.cancel()
    timer.rearm(4.0, "d")  # cancelled -> fresh placement
    sim.run()
    assert fired == ["a", "b", "d"]


def test_timer_rearm_crosses_wheel_heap_boundary():
    sim = Simulator()
    fired = []
    timer = sim.schedule_timer(15.0, fired.append, "long")
    timer.rearm(0.01, "short")  # wheel node -> sub-tick heap entry
    sim.run()
    timer.rearm(15.0, "long2")  # heap history -> wheel node again
    sim.run()
    assert fired == ["short", "long2"]
    assert sim.now == pytest.approx(0.01 + 15.0)


def test_timer_rearm_rejects_negative_delay():
    sim = Simulator()
    timer = sim.schedule_timer(1.0, lambda: None)
    with pytest.raises(Exception):
        timer.rearm(-0.5)


def test_wheel_multi_level_cascade():
    sim = Simulator()
    fired = []
    # Level 0 (seconds), level 1 (minutes), level 2 (hours): the coarse
    # entries must cascade down as their slots are reached, never fire
    # early or late.
    delays = [2.0, 45.0, 4000.0]
    for d in delays:
        sim.schedule_timer(d, fired.append, d)
    sim.run()
    assert fired == sorted(delays)
    assert sim.now == max(delays)
    assert sim.timer_stats()["wheel_cascaded"] > 0


def test_wheel_beyond_horizon_falls_back_to_heap():
    sim = Simulator()
    fired = []
    delays = [2.0, 45.0, 4000.0, 500_000.0]  # last is past the horizon
    for d in delays:
        sim.schedule_timer(d, fired.append, d)
    assert len(sim._wheel) == 3  # the far-future timer went to the heap
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
    sim.schedule_timer(4.0, fired.append, "wheel-first")
    sim.call_later(4.0, fired.append, "heap-second")
    sim.schedule_timer(4.0, fired.append, "wheel-third")
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
    sim = Simulator(wheel=False)
    ev = sim.timeout(10.0)
    assert ev._node is None
    assert ev.cancel() is True
    assert sim.timer_stats()["tombstones"] == 1
    sim.run()
    assert sim.now == 10.0  # the tombstone still pops (sequence slot kept)


def test_tombstone_compaction_bounds_heap_growth():
    sim = Simulator(wheel=False)
    for _ in range(1000):
        sim.timeout(50.0).cancel()
    stats = sim.timer_stats()
    assert stats["tombstones_compacted"] >= 1
    # Without compaction the heap would hold ~1000 dead entries.
    assert stats["heap_pending"] < 200


def test_peek_sees_wheel_residents():
    sim = Simulator()
    sim.schedule_timer(7.25, lambda: None)
    assert sim.peek() == pytest.approx(7.25)


def test_timer_stats_accounting():
    sim = Simulator()
    t1 = sim.schedule_timer(5.0, lambda: None)
    sim.schedule_timer(6.0, lambda: None)
    t1.cancel()
    sim.run()
    stats = sim.timer_stats()
    assert stats["wheel_enabled"] is True
    assert stats["wheel_scheduled"] == 2
    assert stats["wheel_cancelled"] == 1
    assert stats["wheel_flushed"] == 1
    assert stats["wheel_pending"] == 0


# ---------------------------------------------------------------------------
# Property: wheel on == wheel off, for arbitrary op interleavings.
# ---------------------------------------------------------------------------


def _random_history(seed: int, wheel: bool, ops: int = 400):
    """Replay a seed-determined op sequence; return the firing history."""
    rng = random.Random(seed)
    sim = Simulator(wheel=wheel)
    fired = []
    live = []  # Timer handles that may still be pending
    timeouts = []  # cancellable Timeout events

    for step in range(ops):
        roll = rng.random()
        if roll < 0.40:
            delay = rng.choice(
                [0.05, 0.3, 0.9, 2.7, 15.0, 40.0, 90.0, 3000.0, 200_000.0]
            )
            idx = step  # unique label
            live.append(sim.schedule_timer(delay, fired.append, idx))
        elif roll < 0.55 and live:
            live.pop(rng.randrange(len(live))).cancel()
        elif roll < 0.70 and live:
            timer = live[rng.randrange(len(live))]
            timer.rearm(rng.choice([0.1, 1.5, 16.0, 64.0]), (step, "rearm"))
        elif roll < 0.80:
            ev = sim.timeout(rng.choice([0.2, 5.0, 33.0]))
            ev.callbacks.append(
                lambda e, i=step: fired.append((i, "timeout"))
            )
            timeouts.append(ev)
        elif roll < 0.90 and timeouts:
            timeouts.pop(rng.randrange(len(timeouts))).cancel()
        else:
            sim.run(until=sim.now + rng.choice([0.1, 0.7, 3.0, 21.0]))
        fired.append(("now", round(sim.now, 9)))
    # Drain with an explicit bound covering every delay above: a bare
    # run() would end at the last *entry* popped, and in heap-only mode
    # that can be a cancelled timer's tombstone — the clocks (not the
    # firings) would then differ.  See DESIGN.md §9.
    sim.run(until=2_000_000.0)
    fired.append(("end", round(sim.now, 9)))
    return fired


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 17])
def test_property_wheel_matches_heap_firing_order(seed):
    assert _random_history(seed, wheel=True) == _random_history(
        seed, wheel=False
    )


# ---------------------------------------------------------------------------
# Property: wheel on == wheel off, with processes and interrupts too.
# ---------------------------------------------------------------------------


def _interleaving_trace(wheel: bool, ops):
    """Drive one simulator through an op schedule; return the firing trace.

    Op kinds: 0 ``call_later``, 1 ``schedule_timer``, 2 ``rearm``,
    3 ``cancel``, 4 a two-timeout process, 5 a process parked on a
    timeout at least one wheel tick out that is interrupted while
    parked.  With the wheel on, that interrupt unlinks the timeout and
    recycles it (or tombstones it once flushed); heap-only, it always
    tombstones.
    """
    sim = Simulator(wheel=wheel)
    trace = []
    timers = []

    def fire(tag):
        trace.append((round(sim.now, 9), tag))

    def two_waits(pid, delays):
        for i, d in enumerate(delays):
            yield sim.timeout(d)
            fire(("proc", pid, i))

    def sleeper(pid, delay):
        try:
            yield sim.timeout(delay)
            fire(("slept", pid))
        except Interrupted as intr:
            fire(("interrupted", pid, intr.cause))
            # Re-park: on the wheel path this reuses the recycled Timeout.
            yield sim.timeout(delay)
            fire(("resumed", pid))

    for i, (kind, a, b) in enumerate(ops):
        if kind == 0:
            sim.call_later(a, fire, ("cb", i))
        elif kind == 1:
            timers.append(sim.schedule_timer(a, fire, ("timer", i)))
        elif kind == 2 and timers:
            timers[int(b * len(timers)) % len(timers)].rearm(a)
        elif kind == 3 and timers:
            timers[int(b * len(timers)) % len(timers)].cancel()
        elif kind == 5:
            delay = 0.5 + a  # >= one default wheel tick
            proc = sim.process(sleeper(i, delay))
            # At b == 1 the interrupt ties with the deadline and wins
            # on sequence number, so the process is always still parked.
            sim.call_later(b * delay, proc.interrupt, i)
        else:
            sim.process(two_waits(i, [a, b]))
    sim.run()
    return trace


op_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)


@given(ops=op_strategy)
@settings(max_examples=60, deadline=None)
def test_random_interleavings_dispatch_identically(ops):
    """Any mix of timeouts, timers, re-arms, cancels, processes and
    interrupts fires in the same order with the wheel on and off."""
    assert _interleaving_trace(True, ops) == _interleaving_trace(False, ops)


def test_interrupt_of_wheel_parked_process_unlinks_and_recycles():
    """Op kind 5 really takes the wheel branch (unlink + recycle) with
    the wheel on, and the tombstone branch heap-only."""
    waits = {}
    for wheel in (True, False):
        sim = Simulator(wheel=wheel)
        seen = waits[wheel] = []

        def sleeper():
            try:
                seen.append((yield sim.timeout(3.5)))
            except Interrupted:
                seen.append(sim.now)
                ev = sim.timeout(3.5)
                seen.append(ev)
                yield ev

        proc = sim.process(sleeper())
        parked = []
        sim.call_later(0.5, lambda: parked.append(proc._target))
        sim.call_later(0.875, proc.interrupt)
        sim.run()
        stats = sim.timer_stats()
        if wheel:
            assert stats["wheel_cancelled"] == 1 and stats["tombstones"] == 0
            assert seen[1] is parked[0]  # the unlinked Timeout was reused
        else:
            assert stats["tombstones"] == 1
            assert seen[1] is not parked[0]
        assert seen[0] == 0.875 and sim.now == 0.875 + 3.5
