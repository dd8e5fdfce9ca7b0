"""The queue primitive built on the simulation kernel.

:class:`Store` — a FIFO queue of items with blocking ``get`` — covers
everything the server models need: ready-event queues, accept backlogs,
per-connection inboxes.  A pending ``get`` can be *cancelled*, so a
caller can race it against a timeout (``sim.within``, e.g. httpd's 15 s
idle reap) without leaking a waiter.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .core import Event, SimulationError, Simulator

__all__ = ["Store", "StoreFull"]


class StoreFull(Exception):
    """Raised by :meth:`Store.put` when a bounded store is at capacity."""


class Store:
    """FIFO item queue with blocking ``get`` and optional capacity.

    ``put`` is immediate: it raises :class:`StoreFull` when a bounded store
    is full (models a kernel SYN backlog dropping packets) rather than
    blocking the producer.

    The item and getter deques are allocated on first use: a simulation
    holds one store per connection (its inbox), most of which never see
    a blocked ``get`` and many of which never see an item, so an unused
    store costs only its own slots.
    """

    __slots__ = ("sim", "capacity", "_items", "_getters")

    def __init__(self, sim: Simulator, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._items: Optional[Deque[Any]] = None
        self._getters: Optional[Deque[Event]] = None

    def __len__(self) -> int:
        items = self._items
        return 0 if items is None else len(items)

    @property
    def waiting_getters(self) -> int:
        """Number of pending (uncancelled) ``get`` requests."""
        getters = self._getters
        if getters is None:
            return 0
        return sum(1 for ev in getters if not ev.triggered)

    @property
    def is_full(self) -> bool:
        items = self._items
        return (
            self.capacity is not None
            and items is not None
            and len(items) >= self.capacity
        )

    def try_put(self, item: Any, front: bool = False) -> bool:
        """Like :meth:`put` but returns False instead of raising when full."""
        # Hand the item directly to a waiting getter when possible: the
        # queue is then logically empty, so capacity never blocks this path.
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if not getter.triggered:
                getter.succeed(item)
                return True
        if self.is_full:
            return False
        items = self._items
        if items is None:
            items = self._items = deque()
        if front:
            items.appendleft(item)
        else:
            items.append(item)
        return True

    def put(self, item: Any, front: bool = False) -> None:
        """Enqueue ``item`` (or deliver it to a waiting getter).

        ``front=True`` inserts at the dequeue end — LIFO ordering, used
        by overload-control accept-queue disciplines.
        """
        if not self.try_put(item, front=front):
            raise StoreFull(f"store at capacity {self.capacity}")

    def peek_front(self) -> Any:
        """The next item ``get`` would return, or ``None`` if empty."""
        return self._items[0] if self._items else None

    def peek_back(self) -> Any:
        """The most recently appended item, or ``None`` if empty."""
        return self._items[-1] if self._items else None

    def get(self) -> Event:
        """Dequeue an item; the event succeeds with the item."""
        ev = self.sim.event()
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            getters = self._getters
            if getters is None:
                getters = self._getters = deque()
            getters.append(ev)
        return ev

    def try_get(self) -> Any:
        """Immediately dequeue an item or return ``None`` if empty."""
        if self._items:
            return self._items.popleft()
        return None

    def cancel(self, get_request: Event) -> bool:
        """Withdraw a pending ``get``.

        Returns True if the request was still pending and is now
        cancelled; False if it had already been satisfied (the caller then
        owns the item).
        """
        if get_request.triggered or self._getters is None:
            return False
        try:
            self._getters.remove(get_request)
        except ValueError:
            return False
        get_request.succeed(None)
        get_request.defuse()
        return True
