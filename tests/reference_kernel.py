"""A naive reference kernel: the oracle for :mod:`repro.sim.core`.

It keeps one heap of ``[time, id, action]`` entries ordered by
``(time, id)`` and removes cancelled entries lazily: a cancel blanks the
entry's action, and dispatch skips blank entries.  It has no free lists,
no same-instant lane, no timing wheel and no compaction, and it shares no
code with the production kernel apart from the two exception classes, so
a bug in a production fast path cannot hide in both.

Every push takes the next id at the point where the production kernel
takes its next sequence number, so the two must dispatch the same entries
in the same order, and ``pushes`` must equal the production ``_seq``.
``tests/test_reference_kernel.py`` drives both with random operation
sequences and compares what fires, when, and with which values.

The API is the part of ``repro.sim.Simulator`` that property drives:
``now``, ``event``, ``timeout`` (with ``cancel``), ``process`` (with
``interrupt``), ``call_later``, ``schedule_timer`` (with ``cancel`` and
``rearm``), ``within``, ``run(until)``, ``step``, ``peek`` and
``run_process``.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.sim.core import Interrupted, SimulationError

__all__ = ["Simulator", "Event", "Timeout", "Timer", "Process", "TimedWait"]

_PENDING = object()
_INF = float("inf")


class Event:
    """A one-shot occurrence; processing runs its callbacks in order."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok = True
        self._defused = False

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        return self._trigger(True, value)

    def fail(self, exc: BaseException) -> "Event":
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        return self._trigger(False, exc)

    def defuse(self) -> None:
        self._defused = True

    def _trigger(self, ok: bool, value: Any) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = ok
        self._value = value
        self.sim._schedule(0.0, self._process)
        return self

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)
        if not self._ok and not self._defused:
            raise self._value


class Timeout(Event):
    """An event that succeeds ``delay`` after it is created."""

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        sim._check(delay)
        super().__init__(sim)
        self._value = value
        self._entry: Optional[list] = sim._schedule(delay, self._process)

    def _process(self) -> None:
        self._entry = None
        super()._process()

    def cancel(self) -> bool:
        if self._entry is None:
            return False
        self.sim._cancel(self._entry)
        self._entry = None
        return True


class Timer:
    """A cancellable, re-armable bare callback."""

    def __init__(self, sim: "Simulator", delay: float, fn: Callable, args: tuple) -> None:
        self.sim = sim
        self.fn = fn
        self.args = args
        self._entry = sim._schedule(delay, self._run)

    @property
    def active(self) -> bool:
        return self._entry is not None

    def cancel(self) -> bool:
        if self._entry is None:
            return False
        self.sim._cancel(self._entry)
        self._entry = None
        return True

    def rearm(self, delay: float, *args: Any) -> "Timer":
        self.sim._check(delay)
        if args:
            self.args = args
        if self._entry is not None:
            self.sim._cancel(self._entry)
        self._entry = self.sim._schedule(delay, self._run)
        return self

    def _run(self) -> None:
        self._entry = None
        self.fn(*self.args)


class _Boot:
    """What a new process is first resumed with."""

    _ok = True
    _value = None


class Process(Event):
    """Runs a generator; the event triggers with its return value."""

    def __init__(self, sim: "Simulator", gen: Any, name: Optional[str] = None) -> None:
        if not hasattr(gen, "send"):
            raise SimulationError(f"process requires a generator, got {gen!r}")
        super().__init__(sim)
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._target: Any = _Boot()
        sim.call_later(0.0, self._resume, self._target)

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        if self._value is not _PENDING:
            raise SimulationError("cannot interrupt a terminated process")
        target = self._target
        poke = Event(self.sim)
        poke.callbacks.append(self._resume)
        poke._defused = True
        poke.fail(Interrupted(cause))
        self._target = poke
        # The old target keeps its stale callback, which _resume ignores.
        # A timeout only this process waits on is cancelled, as in the
        # production kernel; only peek() can tell the difference.
        if type(target) is Timeout and target.callbacks and len(target.callbacks) == 1:
            target.cancel()

    def _resume(self, event: Any) -> None:
        if event is not self._target:
            return
        self._target = None
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
        if not isinstance(nxt, Event) or nxt.sim is not self.sim:
            self._gen.close()
            self.fail(SimulationError(f"process {self.name!r} yielded {nxt!r}"))
            return
        if nxt.callbacks is None:
            # Already processed: hand its outcome over one push later.
            relay = Event(self.sim)
            relay.callbacks.append(self._resume)
            relay._defused = not nxt._ok
            relay._trigger(nxt._ok, nxt._value)
            nxt = relay
        else:
            nxt.callbacks.append(self._resume)
        self._target = nxt


class TimedWait(Event):
    """``event`` or a timeout after ``delay``, whichever is processed first.

    Succeeds with True (``event`` first) or False (timeout first), or
    fails with ``event``'s exception.  The losing timeout is cancelled.
    """

    def __init__(self, sim: "Simulator", event: Event, delay: float) -> None:
        super().__init__(sim)
        if event.sim is not sim:
            raise SimulationError("timed wait on an event from another simulator")
        self._timeout = Timeout(sim, delay)
        if event.callbacks is None:
            self._check(event)
        else:
            event.callbacks.append(self._check)
            self._timeout.callbacks.append(self._check)

    def _check(self, child: Event) -> None:
        if self._value is not _PENDING:
            return
        if child is self._timeout:
            self.succeed(False)
            return
        self._timeout.cancel()
        if child._ok:
            self.succeed(True)
        else:
            child._defused = True
            self.fail(child._value)


class Simulator:
    """The reference event loop."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[list] = []
        #: Entries pushed so far; the production kernel's ``_seq``.
        self.pushes = 0

    # -- scheduling ----------------------------------------------------------
    def _check(self, delay: float) -> None:
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"delay must be a finite number >= 0, got {delay!r}")

    def _schedule(self, delay: float, action: Callable[[], None]) -> list:
        self.pushes += 1
        entry = [self.now + delay, self.pushes, action]
        heapq.heappush(self._heap, entry)
        return entry

    @staticmethod
    def _cancel(entry: list) -> None:
        entry[2] = None

    def _next_live(self) -> Optional[list]:
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
        return heap[0] if heap else None

    # -- API -----------------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Any, name: Optional[str] = None) -> Process:
        return Process(self, gen, name)

    def within(self, event: Event, delay: float) -> TimedWait:
        self._check(delay)
        return TimedWait(self, event, delay)

    def call_later(self, delay: float, fn: Callable, *args: Any) -> None:
        self._check(delay)
        self._schedule(delay, lambda: fn(*args))

    def schedule_timer(self, delay: float, fn: Callable, *args: Any) -> Timer:
        self._check(delay)
        return Timer(self, delay, fn, args)

    def peek(self) -> float:
        entry = self._next_live()
        return _INF if entry is None else entry[0]

    def step(self) -> None:
        entry = self._next_live()
        if entry is None:
            raise SimulationError("no scheduled events")
        heapq.heappop(self._heap)
        self.now = entry[0]
        entry[2]()

    def run(self, until: Optional[float] = None) -> None:
        if until is not None and until < self.now:
            raise SimulationError(f"cannot run backwards to {until!r}")
        bound = _INF if until is None else until
        while True:
            entry = self._next_live()
            if entry is None or entry[0] > bound:
                break
            self.step()
        if until is not None:
            self.now = until

    def run_process(self, proc: Process) -> Any:
        while proc.is_alive and self._next_live() is not None:
            self.step()
        if proc.is_alive:
            raise SimulationError(f"simulation ran out of events before {proc.name!r} finished")
        if not proc._ok:
            proc._defused = True
            raise proc._value
        return proc._value
