"""Discrete-event simulation kernel.

This module implements a small, fast, dependency-free event-driven
simulation core in the style of SimPy: a :class:`Simulator` owns a binary
heap of scheduled :class:`Event` objects and advances a simulated clock by
processing them in timestamp order.  Model logic is written as Python
generator functions wrapped in :class:`Process`; a process suspends by
yielding an event and is resumed with the event's value once it triggers.

Design notes
------------
* Events carry ``__slots__`` and the hot path avoids attribute lookups
  where it matters; the kernel comfortably processes around a million
  events per second, which is what the full figure-regeneration sweeps in
  :mod:`repro.core.figures` need (~10^7 events per sweep point at the top
  client counts).
* ``Simulator.now`` is a plain attribute that only the dispatch loop in
  :meth:`Simulator.run` writes; model code reads it and never assigns it.
* Model code uses only the public API (``now``, ``event``, ``timeout``,
  ``within``, ``process``, ``call_later``, ``run``), so the naive
  reference kernel in ``tests/reference_kernel.py`` can run whole
  experiments in its place: it is the oracle for this module.
* Fast paths (see DESIGN.md "Kernel fast-path invariants"):

  - Same-instant lane: a push for the current instant — ``Event.succeed``
    and ``fail`` (so also process completion and relays) and
    ``call_later(0, ...)`` — appends ``(seq, entry)`` to a deque instead
    of the heap.  Dispatch takes the heap top before the lane's head only
    when the top is due now and has the older sequence number, so the
    dispatch order is exactly the heap's ``(time, seq)`` order.  A
    :class:`Timeout` has a cancel handle, so it keeps its heap or wheel
    route even at zero delay.
  - :meth:`Simulator.call_later` schedules a bare-callback entry instead
    of a :class:`Timeout` + lambda + callbacks list.
  - :meth:`Simulator.within` is the one timed wait ("this event, or a
    timeout after ``d``"): one :class:`TimedWait` and one timeout, no
    child lists or value dict, and it cancels its losing timeout itself.
  - Timeouts at least one wheel tick out (:data:`WHEEL_TICK`, 0.5 s) are
    staged on a hierarchical timing wheel (:mod:`repro.sim.wheel`)
    instead of the heap: O(1) schedule and — via :meth:`Timeout.cancel`,
    which a timed wait calls on its losing timeout — O(1) true cancel
    with no tombstone.  Due wheel slots are flushed *into* the heap, keys
    intact, before dispatch can pass them, so the wheel never reorders
    anything.  Bare callbacks are never cancelled, so they never ride
    the wheel.
  - Cancelled timeouts that must stay heap-resident (sub-tick or
    already flushed) become tombstones (``_node is _DEAD``).
    Dispatch and :meth:`Simulator.peek` skip them, so a tombstone never
    moves the clock; the heap is compacted in place once tombstones
    exceed half the live entries (see ``tombstones_compacted``), so
    cancel-heavy runs no longer grow the heap without bound.

  None of the fast paths changes scheduling order: every push takes
  exactly one sequence number, in the same order as a kernel with one
  heap and no fast paths (``tests/reference_kernel.py``), so tie-breaking
  (and therefore determinism for a fixed seed) is unchanged.
* Delays must be finite numbers >= 0: a NaN or infinite delay would
  corrupt the heap order or the wheel's slot arithmetic, so every entry
  point raises :class:`SimulationError` for one.
* The kernel reuses no object: each ``timeout()``, ``call_later()`` and
  wheel schedule builds a fresh one, which reference counting frees, so
  a processed timeout keeps its value for as long as anything holds it.
* ``run()`` pauses automatic cyclic garbage collection while it
  dispatches and restores the caller's setting on every exit path: the
  kernel and the model build no per-event reference cycles (DESIGN.md §8,
  fourth invariant), so reference counting frees a run's garbage at once
  and the collections a run would trigger find nothing.  A cycle built
  during ``run()`` is collected after it returns.
* Failures propagate: an event that fails with no registered callbacks and
  that nobody *defused* re-raises from :meth:`Simulator.run`, so model
  bugs surface in tests instead of being silently dropped.
* Determinism: ties in time are broken by a monotonically increasing
  sequence number, so runs are exactly reproducible for a fixed seed.
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, List, Optional

from .wheel import TimingWheel

#: Timing-wheel slot width (simulated seconds); timers at least this far
#: out are routed to the wheel instead of the heap.
WHEEL_TICK = 0.5

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "TimedWait",
    "Simulator",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double trigger, bad yield, ...)."""


#: Sentinel marking an event that has not triggered yet.
_PENDING = object()

#: Marks a cancelled timeout (``Timeout._node``).  Distinct from None,
#: which means "heap-resident and live".
_DEAD = object()

_INF = float("inf")


def _bad_delay(delay: Any) -> SimulationError:
    """The error for a delay that is not a finite number >= 0.

    Callers test ``0.0 <= delay < _INF``, which is False for NaN, for
    infinities and for negative numbers alike.
    """
    return SimulationError(f"delay must be a finite number >= 0, got {delay!r}")


class _Stop(Exception):
    """Ends :meth:`Simulator.run` from a callback (``run_process``)."""


class _Callback:
    """Internal heap entry: a bare scheduled callback.

    Scheduled by :meth:`Simulator.call_later`; carries no Event
    bookkeeping (no callbacks list, no value, no failure state).  The
    dispatch loop recognises it by ``callbacks is None``, which can never
    be true of a heap-resident :class:`Event` (events enter the heap only
    when triggered and leave it processed).
    """

    __slots__ = ("fn", "args")

    #: Read by the dispatch loop; distinguishes us from Event entries.
    callbacks = None
    #: Read by the dispatch loop's tombstone check: a callback entry is
    #: never cancelled.
    _node = None


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    *triggers* it, which schedules it on the simulator queue.  When the
    simulator pops it, the event is *processed*: every registered callback
    is invoked with the event as its sole argument.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Callbacks run at processing time; ``None`` once processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok = True
        self._defused = False

    # -- inspection ------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed`/:meth:`fail` has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the simulator has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception of a triggered event."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self._ok = True
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        sim._lane.append((seq, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is delivered to waiting processes (thrown into their
        generators).  If nothing waits on the event and nobody calls
        :meth:`defuse`, the exception re-raises from :meth:`Simulator.run`.
        """
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = exc
        self._ok = False
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        sim._lane.append((seq, self))
        return self

    def defuse(self) -> None:
        """Mark a failure as handled so it does not crash the simulation."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "pending"
            if not self.triggered
            else ("ok" if self._ok else "failed")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation.

    Short delays (below the wheel tick) go straight onto the heap; longer
    ones are staged on the timing wheel, which makes :meth:`cancel` a
    true O(1) unlink for the overwhelmingly common case of idle-reap /
    retransmit / race-loser timers that never fire.  ``_node`` tracks
    where the entry lives: ``None`` = heap, a wheel node = wheel,
    ``_DEAD`` = cancelled.
    """

    __slots__ = ("_node",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if not 0.0 <= delay < _INF:
            raise _bad_delay(delay)
        # Flattened Event.__init__ + the scheduling push: a Timeout is born
        # triggered, and this constructor is the hottest allocation site
        # in the kernel.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        sim._seq = seq = sim._seq + 1
        when = sim.now + delay
        if delay < WHEEL_TICK:
            self._node = None
            heappush(sim._heap, (when, seq, self))
        else:
            # The wheel takes the key already assigned, so routing never
            # perturbs tie-breaking; it declines (None) an entry due
            # within the current slot or beyond its horizon.
            self._node = node = sim._wheel.schedule(when, seq, self)
            if node is None:
                heappush(sim._heap, (when, seq, self))

    def cancel(self) -> bool:
        """Cancel a timeout that is guaranteed not to be observed firing.

        Returns True if the timeout was still pending dispatch.  Wheel
        residents are unlinked outright (O(1), no trace left); heap
        residents have their callback list cleared and stay on the heap
        as a tombstone that dispatch skips (reclaimed early by compaction
        when tombstones pile up).  Contract: the caller must ensure
        nothing would observe the firing.  :class:`TimedWait` cancels its
        own losing timeout this way.
        """
        node = self._node
        if node is _DEAD:
            return False
        if node is not None:
            self._node = _DEAD
            self.sim._wheel.unlink(node)
            return True
        callbacks = self.callbacks
        if callbacks is None:
            return False  # already processed
        callbacks.clear()
        self._node = _DEAD
        self.sim._note_tombstone()
        return True


class _Boot:
    """Pseudo-event that bootstraps a process generator.

    Only ``_ok``/``_value`` are ever read (by :meth:`Process._resume` on
    the success path), so one immutable module-level instance serves every
    process — no per-process bootstrap Event allocation.
    """

    __slots__ = ()

    _ok = True
    _value = None


_BOOT = _Boot()


class Process(Event):
    """Wraps a generator; the process event triggers when it returns.

    The generator may ``yield`` any :class:`Event` belonging to the same
    simulator; it is resumed with the event's value (or has the failure
    exception thrown into it).  The generator's return value becomes the
    process event's value.
    """

    __slots__ = ("_gen", "name")

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(gen, "send"):
            raise SimulationError(f"process requires a generator, got {gen!r}")
        super().__init__(sim)
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        # Bootstrap: resume the generator at the current time.
        sim.call_later(0.0, self._resume, _BOOT)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    # -- internal --------------------------------------------------------
    def _resume(self, event: Event) -> None:
        try:
            if event._ok:
                nxt = self._gen.send(event._value)
            else:
                event._defused = True
                nxt = self._gen.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(nxt, Event):
            err = SimulationError(
                f"process {self.name!r} yielded non-event {nxt!r}"
            )
            self._gen.close()
            self.fail(err)
            return
        if nxt.sim is not self.sim:
            self._gen.close()
            self.fail(SimulationError("yielded event from another simulator"))
            return
        callbacks = nxt.callbacks
        if callbacks is not None:
            callbacks.append(self._resume)
        else:
            # Already processed: relay its outcome one push later.
            relay = Event(self.sim)
            relay._value = nxt._value
            relay._ok = nxt._ok
            if not nxt._ok:
                relay._defused = True
            relay.callbacks.append(self._resume)
            self.sim._push(relay)


class TimedWait(Event):
    """``event`` or a timeout after ``delay``, whichever is processed first.

    Built by :meth:`Simulator.within`; a process yields it.  The value is
    ``True`` when ``event`` was processed first and ``False`` when the
    timeout fired first.  If ``event`` fails first, its exception is
    thrown into the waiter and ``event`` is defused.

    The wait owns its timeout.  The timeout takes its sequence number when
    the wait is built; the wait pushes its own entry, which resumes the
    waiter, when the first child is processed.  A losing timeout is
    cancelled: unlinked from the wheel, or left on the heap as a
    tombstone.

    Once settled, the wait references neither child.  A losing ``event``
    still holds the wait's ``_check``, so a reference back would close a
    cycle only the cyclic garbage collector could free.

    A waiter that acts on whether ``event`` has *triggered* must read
    ``event.triggered``: in a same-instant tie ``event`` can trigger after
    the timeout fired but before the waiter resumes (value ``False``).
    """

    __slots__ = ("_timer",)

    def _check(self, child: Event) -> None:
        timer = self._timer
        if timer is None:
            return  # already settled: this child came second
        self._timer = None
        if child is timer:
            self.succeed(False)
            return
        timer.cancel()
        self._take(child)

    def _take(self, event: Event) -> None:
        """Settle with the outcome of ``event``, which was processed first."""
        if event._ok:
            self.succeed(True)
        else:
            event._defused = True
            self.fail(event._value)


class Simulator:
    """The event loop: a clock, a heap of ``(time, seq, entry)`` tuples and
    a same-instant lane of ``(seq, entry)`` tuples.

    Entries are triggered :class:`Event` objects or internal
    :class:`_Callback` fast-path entries (see :meth:`call_later`).  The
    lane holds entries pushed for the current instant; the clock never
    advances while it is non-empty.
    """

    __slots__ = (
        "now",
        "_heap",
        "_lane",
        "_seq",
        "_wheel",
        "_tombstones",
        "tombstones_compacted",
        "lane_dispatched",
    )

    #: Kernel name, read by the end-to-end benchmark's probe
    #: (benchmarks/e2e/probe.py); there is one kernel.
    backend = "python"
    #: Also read by the probe: long timers always ride the timing wheel.
    wheel_enabled = True

    def __init__(self) -> None:
        #: Current simulated time (seconds by convention in this
        #: library).  Only the dispatch loop writes it.
        self.now = 0.0
        self._heap: list = []
        self._lane: deque = deque()
        self._seq = 0
        #: Timing wheel for timeouts at least one tick out.
        self._wheel = TimingWheel(WHEEL_TICK)
        #: Tombstones made since the last compaction (cancelled entries
        #: left on the heap), and how many times compaction reclaimed
        #: them early.
        self._tombstones = 0
        self.tombstones_compacted = 0
        #: Entries dispatched from the same-instant lane (run() adds its
        #: count when it returns).
        self.lane_dispatched = 0

    # -- inspection --------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none.

        Tombstones at the top of the heap are popped first, as dispatch
        would skip them.
        """
        if self._lane:
            return self.now
        heap = self._heap
        while heap and heap[0][2]._node is _DEAD:
            heappop(heap)
        when = heap[0][0] if heap else _INF
        if self._wheel._count:
            wheel_when = self._wheel.earliest()
            if wheel_when < when:
                when = wheel_when
        return when

    def timer_stats(self) -> dict:
        """Kernel timer counters (wheel and lane traffic, tombstones)."""
        wheel = self._wheel
        return {
            "wheel_enabled": True,
            "wheel_scheduled": wheel.scheduled,
            "wheel_cancelled": wheel.cancelled,
            "wheel_flushed": wheel.flushed,
            "wheel_cascaded": wheel.cascaded,
            # Always 0 (there is no bulk flush); kept because
            # benchmarks/e2e/probe.py reads it.
            "wheel_batch_flushes": 0,
            "wheel_pending": wheel._count,
            "heap_pending": len(self._heap),
            "lane_dispatched": self.lane_dispatched,
            "tombstones": self._tombstones,
            "tombstones_compacted": self.tombstones_compacted,
        }

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event triggering ``delay`` from now."""
        return Timeout(self, delay, value)

    def within(self, event: Event, delay: float) -> TimedWait:
        """Wait for ``event`` or for ``delay`` to pass, whichever is first.

        A process yields the result and resumes with ``True`` if ``event``
        was processed first or ``False`` if the delay ran out first; a
        failure of ``event`` is thrown into it instead.  The losing
        timeout is cancelled by the wait, so the caller never sees it.
        See :class:`TimedWait` for the ordering and memory rules.
        """
        if not 0.0 <= delay < _INF:
            raise _bad_delay(delay)
        if event.sim is not self:
            raise SimulationError("timed wait on an event from another simulator")
        wait = TimedWait(self)
        wait._timer = None
        callbacks = event.callbacks
        if callbacks is None:
            # Already processed: settle at once.  No timeout is built,
            # but its sequence number is still taken: a wait always takes
            # one for its timeout and one to settle.
            self._seq += 1
            wait._take(event)
            return wait
        timer = Timeout(self, delay)
        wait._timer = timer
        check = wait._check
        callbacks.append(check)
        timer.callbacks.append(check)
        return wait

    def process(
        self, gen: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start a generator as a process."""
        return Process(self, gen, name)

    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` as a bare callback ``delay`` from now.

        This is the kernel's cheapest way to schedule work: no
        :class:`Event` is allocated (no callbacks list, no value/failure
        bookkeeping).  A zero delay takes the same-instant lane instead of
        the heap.  Use :meth:`timeout` plus ``callbacks.append`` when the
        caller needs an event handle to wait on or compose.
        """
        if not 0.0 <= delay < _INF:
            raise _bad_delay(delay)
        cb = _Callback()
        cb.fn = fn
        cb.args = args
        self._seq = seq = self._seq + 1
        if delay:
            heappush(self._heap, (self.now + delay, seq, cb))
        else:
            self._lane.append((seq, cb))

    # -- scheduling --------------------------------------------------------
    def _push(self, event: Event) -> None:
        """Schedule an already-triggered event for the current instant."""
        self._seq = seq = self._seq + 1
        self._lane.append((seq, event))

    def _note_tombstone(self) -> None:
        """Account one cancelled heap-resident entry; compact if due.

        Compaction triggers when tombstones exceed half the live entries
        (3t > heap size  <=>  t > (heap - t) / 2) and rebuilds the heap
        in place, so cancel-heavy runs stay O(live) instead of growing
        without bound.  In-place matters: the run() loop holds a local
        reference to the heap list.
        """
        self._tombstones = count = self._tombstones + 1
        heap = self._heap
        if count >= 64 and count * 3 > len(heap):
            heap[:] = [entry for entry in heap if entry[2]._node is not _DEAD]
            heapify(heap)
            self._tombstones = 0
            self.tombstones_compacted += 1

    def run(self, until: Optional[float] = None) -> None:
        """Run until nothing is scheduled or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if no event falls on it, so back-to-back ``run`` calls compose.
        Without ``until`` the clock stops at the last entry dispatched.
        Automatic cyclic garbage collection is off while the loop
        dispatches and is restored to the caller's setting when ``run``
        returns or raises.
        """
        if until is None:
            bound = _INF
        elif until < self.now:
            raise SimulationError(f"cannot run backwards to {until!r}")
        else:
            bound = until
        # This loop dispatches ~10^7 events per sweep point, so locals
        # replace attribute lookups.
        heap = self._heap
        lane = self._lane
        take = lane.popleft
        wheel = self._wheel
        pop = heappop
        dead = _DEAD
        now = self.now
        from_lane = 0
        collecting = gc.isenabled()
        gc.disable()
        try:
            while True:
                if lane:
                    # Lane entries are due now, and every wheel slot
                    # starts after now, so only the heap top can precede
                    # the lane's head: when it is due now and older.
                    if heap and heap[0][0] <= now and heap[0][1] < lane[0][0]:
                        event = pop(heap)[2]
                        if event._node is dead:
                            continue
                    else:
                        event = take()[1]
                        from_lane += 1
                elif heap:
                    when = heap[0][0]
                    if when >= wheel._next:
                        # A wheel slot starts at or before the heap top:
                        # flush it (and any earlier ones) into the heap
                        # first so staged entries keep their place in
                        # the total (time, seq) order.  _next is never
                        # stale-high, so no flush can be missed.
                        wheel.advance(when, heap)
                        continue
                    if when > bound:
                        break
                    when, _seq, event = pop(heap)
                    if event._node is dead:
                        # A tombstone: skipped before it can move the
                        # clock, so the clock and peek() never see a
                        # cancelled entry.
                        continue
                    self.now = now = when
                elif wheel._count:
                    if wheel._next > bound:
                        break
                    wheel.advance(wheel._next, heap)
                    continue
                else:
                    break
                callbacks = event.callbacks
                if callbacks is None:
                    # Bare-callback entry.
                    event.fn(*event.args)
                    continue
                event.callbacks = None
                for cb in callbacks:
                    cb(event)
                if not event._ok and not event._defused:
                    raise event._value
        finally:
            # One attribute write per run() call, not one per event.
            self.lane_dispatched += from_lane
            if collecting:
                gc.enable()
        if until is not None:
            self.now = until

    def run_process(self, proc: Process) -> Any:
        """Run until ``proc`` is processed; return its value or raise its
        error.

        This is :meth:`run`, stopped from a callback on ``proc`` by a
        private exception (SimPy's ``StopSimulation`` idiom), so no event
        pays for the check.  The callback moves itself behind waiters
        that registered on ``proc`` after it, so every waiter has resumed
        when this returns.
        """
        callbacks = proc.callbacks
        if callbacks is not None:

            def stop(_proc: Process) -> None:
                if callbacks[-1] is not stop:
                    callbacks.append(stop)
                    return
                raise _Stop

            callbacks.append(stop)
            try:
                self.run()
            except _Stop:
                pass
            finally:
                if proc.callbacks is not None:
                    callbacks.remove(stop)
            if proc.callbacks is not None:
                raise SimulationError(
                    f"simulation ran out of events before {proc.name!r} finished"
                )
        if not proc._ok:
            proc._defused = True
            raise proc._value
        return proc._value
