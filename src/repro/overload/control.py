"""The mountable bundle: admission policy + queue discipline.

One :class:`OverloadControl` object is the unit servers mount.  It owns
the pieces the listen socket consults over a connection's wait —
admission at arrival, ordering in the accept queue — plus the shared
measurement (queue-delay histogram) every overload experiment needs.
A ``ServerSpec`` holds the configured control; ``build_server`` mounts a
deep copy of it, so every run starts from fresh policy state and the
spec itself is never mutated.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..metrics.collectors import StatAccumulator
from .policies import AdmissionPolicy, AlwaysAdmit
from .queueing import FIFO, QueueDiscipline

__all__ = ["OverloadControl"]


class OverloadControl:
    """Pluggable overload policy set, mounted on a simulated server."""

    def __init__(
        self,
        admission: Optional[AdmissionPolicy] = None,
        discipline: QueueDiscipline = FIFO,
    ) -> None:
        self.admission = admission if admission is not None else AlwaysAdmit()
        self.discipline = discipline
        self.queue_delay = StatAccumulator()

    def record_queue_delay(self, delay: float) -> None:
        """One connection spent ``delay`` seconds in the accept queue."""
        self.queue_delay.add(delay)

    @property
    def tag(self) -> str:
        """Short suffix for labels, e.g. ``codel+lifo``; '' when inert."""
        parts = []
        if not isinstance(self.admission, AlwaysAdmit):
            parts.append(self.admission.name)
        if self.discipline.front_insert:
            parts.append(self.discipline.name)
        return "+".join(parts)

    def stats(self) -> Dict[str, float]:
        """Flat counter dict merged into ``Server.stats()``."""
        return {
            "requests_admitted": self.admission.admitted,
            "requests_shed": self.admission.shed,
            # No policy closes a queued connection; the key stays because
            # row digests hash every server-stats key.
            "early_closed": 0,
            "queue_delay_mean": round(self.queue_delay.mean, 6),
            "queue_delay_p99": round(self.queue_delay.percentile(99), 6),
        }

    def __repr__(self) -> str:
        return (
            f"OverloadControl(admission={self.admission.name}, "
            f"discipline={self.discipline.name})"
        )
