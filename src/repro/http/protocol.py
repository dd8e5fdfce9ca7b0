"""HTTP/1.1 wire-size helpers shared by server models.

Centralises the small protocol decisions every architecture makes the
same way (so differences between them stay architectural, as in the
paper): the response head's size and the write granularity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .messages import DEFAULT_RESPONSE_HEAD_BYTES, Request

__all__ = ["HttpSemantics"]


@dataclass(frozen=True)
class HttpSemantics:
    """Protocol-level knobs used by the simulated servers."""

    #: Response head bytes preceding the body on the wire.
    response_head_bytes: int = DEFAULT_RESPONSE_HEAD_BYTES
    #: Server-side write granularity (one write(2) worth of payload).
    chunk_bytes: int = 16 * 1024

    def response_wire_bytes(self, request: Request) -> int:
        """Total bytes the response to ``request`` puts on the downlink."""
        return self.response_head_bytes + request.response_bytes

    def chunks_for(self, request: Request) -> int:
        """Number of write(2)-sized chunks the response needs."""
        total = self.response_wire_bytes(request)
        return max(1, -(-total // self.chunk_bytes))  # ceil div
