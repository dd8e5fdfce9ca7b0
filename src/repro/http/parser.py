"""Incremental HTTP/1.x request parser.

A real, byte-accurate parser: the live servers in :mod:`repro.live` feed
raw socket data into :class:`RequestParser` and get back complete request
heads, supporting pipelining and arbitrary packet fragmentation.  (The
simulated servers charge a CPU *cost* for parsing instead of running this
code, but the parser is part of the substrate the paper's servers need.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["ParsedRequest", "ParseError", "RequestParser", "render_response_head"]

_MAX_HEAD_BYTES = 16 * 1024
_SUPPORTED_METHODS = frozenset(
    {"GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS", "TRACE"}
)


class ParseError(Exception):
    """The byte stream violates HTTP framing."""


@dataclass
class ParsedRequest:
    """A fully parsed request head (plus any body bytes)."""

    method: str
    target: str
    version: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """Persistent-connection semantics per HTTP/1.0 vs 1.1 rules."""
        conn = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.1":
            return conn != "close"
        return conn == "keep-alive"


class RequestParser:
    """Feed bytes in, get complete :class:`ParsedRequest` objects out."""

    def __init__(self) -> None:
        self._buffer = b""
        self._pending_head: Optional[ParsedRequest] = None
        self._body_needed = 0

    def feed(self, data: bytes) -> List[ParsedRequest]:
        """Consume ``data`` and return every request completed by it."""
        self._buffer += data
        out: List[ParsedRequest] = []
        while True:
            if self._pending_head is not None:
                if len(self._buffer) < self._body_needed:
                    break
                req = self._pending_head
                req.body = self._buffer[: self._body_needed]
                self._buffer = self._buffer[self._body_needed:]
                self._pending_head = None
                self._body_needed = 0
                out.append(req)
                continue
            head_end = self._buffer.find(b"\r\n\r\n")
            sep_len = 4
            if head_end == -1:
                # Be lenient about bare-LF framing, as real servers are.
                head_end = self._buffer.find(b"\n\n")
                sep_len = 2
            if head_end == -1:
                if len(self._buffer) > _MAX_HEAD_BYTES:
                    raise ParseError("request head exceeds maximum size")
                break
            head = self._buffer[:head_end]
            self._buffer = self._buffer[head_end + sep_len:]
            req, body_len = self._parse_head(head)
            if body_len:
                self._pending_head = req
                self._body_needed = body_len
            else:
                out.append(req)
        return out

    @property
    def buffered_bytes(self) -> int:
        """Bytes held waiting for more data."""
        return len(self._buffer)

    # -- internals ---------------------------------------------------------
    @staticmethod
    def _parse_head(head: bytes) -> Tuple[ParsedRequest, int]:
        try:
            text = head.decode("latin-1")
        except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
            raise ParseError("undecodable request head") from exc
        lines = text.replace("\r\n", "\n").split("\n")
        if not lines or not lines[0].strip():
            raise ParseError("empty request line")
        parts = lines[0].split()
        if len(parts) != 3:
            raise ParseError(f"malformed request line: {lines[0]!r}")
        method, target, version = parts
        if method not in _SUPPORTED_METHODS:
            raise ParseError(f"unsupported method {method!r}")
        if not version.startswith("HTTP/"):
            raise ParseError(f"bad HTTP version {version!r}")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line.strip():
                continue
            if line[0] in " \t":  # obs-fold continuation
                raise ParseError("obsolete header folding not supported")
            name, sep, value = line.partition(":")
            if not sep:
                raise ParseError(f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        body_len_raw = headers.get("content-length", "0")
        try:
            body_len = int(body_len_raw)
        except ValueError as exc:
            raise ParseError(f"bad content-length {body_len_raw!r}") from exc
        if body_len < 0:
            raise ParseError("negative content-length")
        return ParsedRequest(method, target, version, headers), body_len


def render_response_head(
    status: int, reason: str, body_bytes: int, keep_alive: bool = True
) -> bytes:
    """Serialise an HTTP/1.1 response head."""
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Server: repro/1.0",
        f"Content-Length: {body_bytes}",
        "Content-Type: application/octet-stream",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
