"""The HTTP request object the simulated workload and servers share,
and the wire sizes every server architecture uses alike."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["Request"]

#: Typical wire size of a 2004-era GET request head (request line + Host,
#: User-Agent, Accept, Connection headers).
DEFAULT_REQUEST_WIRE_BYTES = 300

#: Typical wire size of a response head (status line + Date, Server,
#: Content-Length, Content-Type, Connection headers).
DEFAULT_RESPONSE_HEAD_BYTES = 250

#: Server-side write granularity: one write(2) worth of response payload.
CHUNK_BYTES = 16 * 1024


@dataclass(frozen=True)
class Request:
    """One HTTP request as seen by the simulation.

    ``response_bytes`` is the size of the file the request targets; the
    workload generator samples it from the SURGE population, and the server
    model "discovers" it during its (CPU-charged) file lookup.

    Frozen because the workload shares one instance per file across every
    session that picks it (see :meth:`FilePopulation.request_for`).
    """

    path: str
    response_bytes: int
    method: str = "GET"
    wire_bytes: int = DEFAULT_REQUEST_WIRE_BYTES
    file_id: Optional[int] = None
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def total_response_wire_bytes(self) -> int:
        """Response head + body bytes that will cross the downlink."""
        return DEFAULT_RESPONSE_HEAD_BYTES + self.response_bytes

