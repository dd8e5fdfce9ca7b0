"""A naive reference kernel: the oracle for :mod:`repro.sim.core`.

It keeps one heap of ``[time, id, action]`` entries ordered by
``(time, id)`` and removes cancelled entries lazily: a cancel blanks the
entry's action, and dispatch skips blank entries.  It has no free lists,
no same-instant lane, no timing wheel and no compaction, and it shares no
code with the production kernel apart from its exception class, so a bug
in a production fast path cannot hide in both.

Every push takes the next id at the point where the production kernel
takes its next sequence number, so the two must dispatch the same entries
in the same order, and ``pushes`` must equal the production ``_seq``.
``tests/test_reference_kernel.py`` drives both with random operation
sequences and compares what fires, when, and with which values; the
``reference_oracle`` fixture (``tests/conftest.py``) runs whole
experiments on both and compares their metrics.

The API is the public part of ``repro.sim.Simulator``: ``now``,
``event``, ``timeout`` (with ``cancel``), ``process``, ``call_later``,
``within``, ``run``, ``peek``, ``run_process`` and
``tombstones_compacted``, which servers report (always 0 here).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.sim.core import SimulationError

__all__ = ["Simulator", "Event", "Timeout", "Process", "TimedWait"]

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
        sim.call_later(0.0, self._resume, _Boot())

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def _resume(self, event: Any) -> None:
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
        else:
            nxt.callbacks.append(self._resume)


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

    #: Servers report the production kernel's heap compactions; there are
    #: none here.
    tombstones_compacted = 0

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

    def peek(self) -> float:
        entry = self._next_live()
        return _INF if entry is None else entry[0]

    def _fire(self, entry: list) -> None:
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
            self._fire(entry)
        if until is not None:
            self.now = until

    def run_process(self, proc: Process) -> Any:
        """Dispatch until ``proc`` has been processed (so every waiter on
        it has resumed); return its value or raise its error."""
        while proc.callbacks is not None:
            entry = self._next_live()
            if entry is None:
                raise SimulationError(
                    f"simulation ran out of events before {proc.name!r} finished"
                )
            self._fire(entry)
        if not proc._ok:
            proc._defused = True
            raise proc._value
        return proc._value
