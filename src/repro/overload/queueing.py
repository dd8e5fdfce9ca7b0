"""Accept-queue ordering disciplines.

Under overload the *ordering* of the accept queue changes tail behaviour
dramatically.  FIFO is fair but serves the stalest connection first —
exactly the one whose client is closest to timing out, so at saturation a
FIFO accept queue does maximal work for minimal goodput.  LIFO serves the
freshest connection first: recently-arrived clients get snappy service
while the old ones (whose clients have likely given up anyway) starve at
the bottom — the adaptive-LIFO trick production proxies use to survive
overload.  Under LIFO the oldest waiter sits at the back of the queue,
which is where the listen socket reads the standing delay that
:class:`~repro.overload.policies.CoDelShedder` sheds on.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["QueueDiscipline", "FIFO", "LIFO"]


@dataclass(frozen=True)
class QueueDiscipline:
    """How new connections are inserted into the accept queue."""

    name: str
    #: True = insert at the dequeue end (newest served first).
    front_insert: bool

    def __str__(self) -> str:
        return self.name


#: Kernel default: oldest connection accepted first.
FIFO = QueueDiscipline("fifo", front_insert=False)

#: Newest connection accepted first (adaptive-LIFO overload behaviour).
LIFO = QueueDiscipline("lifo", front_insert=True)
