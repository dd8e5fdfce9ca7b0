"""CPU-speed calibration, so that times from a shared host can be compared.

On a shared VM the speed of plain Python code swings by up to 2× from one
second to the next and from one minute to the next, because other tenants
load the host.  A repetition's raw wall time carries that swing.  While a
child runs, the parent (otherwise idle, on the other core) runs fixed
calibration chunks back to back and notes when each one ran.  The median
chunk time over a window is the host's speed during that window, and a time
measured in the window is rescaled to what it would have been at the
reference speed::

    reference_s = raw_s * REFERENCE_CHUNK_S / median chunk time

The chunk uses only the standard library and this file, never ``repro``, so
a change to the simulator cannot change the yardstick.  It does what the
simulator does most: heap pushes and pops of tuples, small ``__slots__``
objects, dict stores and generator resumes.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import List, Optional, Tuple

__all__ = ["REFERENCE_CHUNK_S", "chunk", "speed"]

#: Median time of one chunk on the 2-vCPU VM the README's baselines come
#: from, in a quiet minute.  A time rescaled by :func:`speed` reads as it
#: would have on that machine at that speed.
REFERENCE_CHUNK_S = 0.0052


class _Node:
    __slots__ = ("t", "v", "nxt")

    def __init__(self, t, v, nxt) -> None:
        self.t = t
        self.v = v
        self.nxt = nxt


def _accumulate():
    total = 0
    while True:
        total += yield total


def _work(n: int = 6000) -> int:
    heap: list = []
    acc = _accumulate()
    next(acc)
    slots = {}
    head = None
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1009, i, head))
        head = _Node(i, i & 255, head)
        slots[i & 511] = head
        if i & 1:
            heapq.heappop(heap)
        acc.send(i & 15)
    return len(heap)


def chunk() -> Tuple[float, float]:
    """Run one calibration chunk; returns its monotonic start and end."""
    start = time.monotonic()
    _work()
    return start, time.monotonic()


def speed(chunks: List[Tuple[float, float]], start: float, end: float) -> Optional[float]:
    """Host speed in ``[start, end]`` relative to the reference (1.0 = as
    fast, 0.5 = twice as slow), from the chunks whose midpoint lies in the
    window; ``None`` when no chunk does."""
    inside = [b - a for a, b in chunks if start <= (a + b) / 2 <= end]
    if not inside:
        return None
    return REFERENCE_CHUNK_S / statistics.median(inside)
