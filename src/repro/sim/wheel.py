"""Hierarchical timing wheel: O(1) schedule, O(1) true cancel.

The heap in :mod:`repro.sim.core` is the wrong data structure for the
paper's timer-dominated workloads: httpd's 15 s idle reap and the
client's connect and reply deadlines are timed waits (``sim.within``)
whose timeouts are nearly all *cancelled* before firing, yet on a heap
each one pays an O(log n) ``heappush`` going in and a lazy tombstone
coming out.  A hashed hierarchical timing wheel (Varghese & Lauck) makes
both operations O(1): schedule links a node into a doubly-linked slot
ring, cancel unlinks it — no tombstone, no heap growth.  Only
:class:`repro.sim.core.Timeout` entries ride the wheel; bare callbacks
are never cancelled and stay on the heap.

Layout
------
``_LEVELS`` levels of ``_SLOTS`` slots each.  Level *j* has a slot width
of ``tick * _SLOTS**j`` (0.5 s, 32 s, 2048 s at the default tick), so
the wheel spans ~36 hours of simulated time; anything beyond that — or
anything due within one tick — stays on the heap.  Each slot is a ring:
a doubly-linked list headed by a pre-allocated sentinel node, so unlink
is four pointer writes with no branches.  Nodes carry ``__slots__``.

The schedule/cancel pair is the hot path (it runs once per timed wait),
so the wheel keeps *no* per-slot occupancy counts: rings answer "empty?"
with a single ``head.nxt is head`` pointer compare, and only
:meth:`TimingWheel.advance` — which runs once per crossed tick boundary,
thousands of times less often than schedule — pays for ring scans.

Order preservation (the load-bearing invariant)
-----------------------------------------------
The wheel is a *staging area in front of the heap*, never a second
dispatch queue.  An entry keeps the ``(time, seq)`` key it was assigned
at schedule time — sequence numbers are consumed exactly as in a kernel
with one heap — and :meth:`TimingWheel.advance` flushes every slot
whose span has been reached *into the heap* before the dispatch loop
pops past it.  The heap then restores the total order by its usual
``(time, seq)`` comparison.  Slots are flushed whole, so an entry can
enter the heap a fraction of a tick early, but never late — and early
entry is harmless because the heap reorders it.  Consequently the
dispatch sequence is *identical* to a one-heap kernel's, event for
event, which is what keeps RunMetrics byte-identical to those of the
naive reference kernel (pinned by tests/test_wheel_equivalence.py).

Cursor invariant: ``_cursor[j]`` is the absolute index of the next
unflushed slot at level *j*; all live entries at level *j* lie in
``[_cursor[j], _cursor[j] + _SLOTS - 1]``, i.e. one revolution, so an
absolute slot maps to exactly one ring and rings never mix revolutions.
``_next`` caches the earliest nonempty slot's start time; cancellation
may leave it stale-*low* (pointing at an emptied slot), which costs at
most one spurious ring scan and is self-correcting — it is never
stale-high, which would delay a flush and break ordering.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, List, Optional

__all__ = ["TimingWheel"]

#: Slots per level.  Power of two: slot index math stays exact in floats
#: and ``& _MASK`` replaces the modulo.
_SLOTS = 64
_MASK = _SLOTS - 1
_LEVELS = 3

_INF = float("inf")


class _WheelNode:
    """One scheduled entry in a slot ring (also used as ring sentinel).

    ``ev`` is the staged Timeout, pushed into the heap as-is on flush.
    There is no constructor: :meth:`TimingWheel.schedule` sets all five
    slots at once, and a sentinel only ever has ``prev``/``nxt`` set.
    """

    __slots__ = ("time", "seq", "ev", "prev", "nxt")


class TimingWheel:
    """The wheel proper.  Owned by a :class:`repro.sim.core.Simulator`."""

    __slots__ = (
        "_ticks",
        "_inv",
        "_rings",
        "_cursor",
        "_count",
        "_next",
        "scheduled",
        "cancelled",
        "flushed",
        "cascaded",
    )

    def __init__(self, tick: float) -> None:
        if tick <= 0:
            raise ValueError(f"wheel tick must be positive, got {tick!r}")
        self._ticks = [tick * _SLOTS**j for j in range(_LEVELS)]
        self._inv = [1.0 / t for t in self._ticks]
        rings: List[List[_WheelNode]] = []
        for _ in range(_LEVELS):
            level = []
            for _ in range(_SLOTS):
                sentinel = _WheelNode()
                sentinel.prev = sentinel.nxt = sentinel
                level.append(sentinel)
            rings.append(level)
        self._rings = rings
        #: Absolute index of the next unflushed slot per level (slot 0
        #: covers [0, tick) which is below the routing threshold, so it
        #: starts out flushed).
        self._cursor = [1] * _LEVELS
        self._count = 0
        #: Start time of the earliest (possibly stale-low) nonempty slot.
        self._next = _INF
        # Lifetime counters (exposed via Simulator.timer_stats()).
        self.scheduled = 0
        self.cancelled = 0
        self.flushed = 0
        self.cascaded = 0

    def __len__(self) -> int:
        return self._count

    # -- scheduling ------------------------------------------------------
    def schedule(self, time: float, seq: int, ev: Any) -> Optional[_WheelNode]:
        """Link ``ev`` for ``(time, seq)``; return its node.

        Returns ``None`` when the entry does not fit — due within the
        current slot or beyond the coarsest level's revolution — in which
        case the caller keeps it on the heap.  The sequence number was
        assigned by the caller *before* routing, so the wheel/heap choice
        never perturbs tie-breaking.
        """
        cursor = self._cursor
        inv = self._inv
        for j in range(_LEVELS):
            s = int(time * inv[j])
            c = cursor[j]
            if s < c:
                return None
            if s - c < _SLOTS:
                node = _WheelNode()
                node.time = time
                node.seq = seq
                node.ev = ev
                head = self._rings[j][s & _MASK]
                tail = head.prev
                tail.nxt = node
                node.prev = tail
                node.nxt = head
                head.prev = node
                self._count += 1
                self.scheduled += 1
                start = s * self._ticks[j]
                if start < self._next:
                    self._next = start
                return node
        return None

    def unlink(self, node: _WheelNode) -> None:
        """True cancel: splice the node out.  O(1)."""
        node.prev.nxt = node.nxt
        node.nxt.prev = node.prev
        self._count -= 1
        self.cancelled += 1
        # _next may now point at an emptied slot; advance() self-corrects.

    # -- flushing --------------------------------------------------------
    def advance(self, t: float, heap: list) -> None:
        """Flush every slot whose span starts at or before ``t``.

        Due entries (level-0 slot reached) move onto ``heap`` with
        their original keys; the rest cascade into finer levels.  Called
        by the dispatch loop *before* it pops any heap entry with
        ``when >= _next``, which is what guarantees a wheel entry can
        never be dispatched late.  Runs once per crossed slot boundary —
        thousands of times less often than schedule/cancel, which is why
        the ring scans live here and not as counters on the hot path.
        """
        cursor = self._cursor
        inv0 = self._inv[0]
        tgt0 = int(t * inv0)
        for j in range(_LEVELS):
            tgt = int(t * self._inv[j])
            c = cursor[j]
            if tgt < c:
                continue
            cursor[j] = tgt + 1
            if self._count == 0:
                continue
            stop = tgt if tgt - c < _SLOTS else c + _MASK
            level_rings = self._rings[j]
            for s in range(c, stop + 1):
                head = level_rings[s & _MASK]
                node = head.nxt
                if node is head:
                    continue
                head.prev = head.nxt = head
                while node is not head:
                    nxt = node.nxt
                    if int(node.time * inv0) <= tgt0:
                        self._emit(node, heap)
                    else:
                        # Not yet due: re-place at a finer level (its new
                        # slot starts after t, so it is never re-flushed
                        # within this advance).
                        self.cascaded += 1
                        self._place(node, heap)
                    node = nxt
        # Recompute the earliest nonempty slot.
        nxt_start = _INF
        if self._count:
            for j in range(_LEVELS):
                c = self._cursor[j]
                level_rings = self._rings[j]
                tick = self._ticks[j]
                for s in range(c, c + _SLOTS):
                    head = level_rings[s & _MASK]
                    if head.nxt is not head:
                        start = s * tick
                        if start < nxt_start:
                            nxt_start = start
                        break
        self._next = nxt_start

    def _emit(self, node: _WheelNode, heap: list) -> None:
        """Move a due node's Timeout onto the heap with its original
        (time, seq); from then on it is heap-resident (``_node`` None)."""
        ev = node.ev
        ev._node = None
        heappush(heap, (node.time, node.seq, ev))
        self.flushed += 1
        self._count -= 1
        # A flushed ring's nodes still point at each other; break the
        # links so reference counting frees each node.
        node.prev = node.nxt = None

    def _place(self, node: _WheelNode, heap: list) -> None:
        """Re-link a cascading node at the finest level that fits it."""
        time = node.time
        cursor = self._cursor
        for j in range(_LEVELS):
            s = int(time * self._inv[j])
            c = cursor[j]
            if s < c:
                break
            if s - c < _SLOTS:
                head = self._rings[j][s & _MASK]
                tail = head.prev
                tail.nxt = node
                node.prev = tail
                node.nxt = head
                head.prev = node
                start = s * self._ticks[j]
                if start < self._next:
                    self._next = start
                return
        # Precision edge (no level fits): the heap handles any time.
        self._emit(node, heap)

    # -- inspection ------------------------------------------------------
    def earliest(self) -> float:
        """Exact time of the earliest wheel entry (full scan; test/peek
        path only — the dispatch loop uses the O(1) ``_next`` bound)."""
        best = _INF
        for level_rings in self._rings:
            for head in level_rings:
                node = head.nxt
                while node is not head:
                    if node.time < best:
                        best = node.time
                    node = node.nxt
        return best
