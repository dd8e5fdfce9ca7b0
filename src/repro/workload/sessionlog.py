"""Session logs: record-and-replay workloads (httperf ``--wsesslog``).

httperf can replay a fixed session log instead of sampling live; this
module provides the same facility.  A :class:`SessionLog` is generated
once from a :class:`SurgeWorkload` (or loaded from JSON) and a
:class:`ReplayWorkload` hands each emulated client its own deterministic
cyclic slice of it — so two *different servers* can be measured under a
byte-identical request sequence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Union

import numpy as np

from ..http.messages import Request
from .surge import SessionPlan, SurgeWorkload

__all__ = ["SessionLog", "ReplayWorkload"]

_FORMAT_VERSION = 1


@dataclass
class SessionLog:
    """A fixed, serialisable list of session plans."""

    sessions: List[SessionPlan]

    @staticmethod
    def generate(
        workload: SurgeWorkload, n_sessions: int, rng: np.random.Generator
    ) -> "SessionLog":
        """Sample ``n_sessions`` sessions from a live workload model."""
        if n_sessions < 1:
            raise ValueError("need at least one session")
        return SessionLog(
            [workload.sample_session(rng) for _ in range(n_sessions)]
        )

    # -- (de)serialisation ---------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "version": _FORMAT_VERSION,
            "sessions": [
                {
                    "groups": [
                        [
                            {
                                "path": r.path,
                                "bytes": r.response_bytes,
                                "file_id": r.file_id,
                            }
                            for r in group
                        ]
                        for group in plan.groups
                    ],
                    "think_times": plan.think_times,
                    "inter_session_gap": plan.inter_session_gap,
                }
                for plan in self.sessions
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "SessionLog":
        if data.get("version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported session-log version {data.get('version')!r}"
            )
        sessions = []
        for raw in data["sessions"]:
            groups = [
                [
                    Request(
                        path=r["path"],
                        response_bytes=int(r["bytes"]),
                        file_id=r.get("file_id"),
                    )
                    for r in group
                ]
                for group in raw["groups"]
            ]
            sessions.append(
                SessionPlan(
                    groups,
                    [float(t) for t in raw["think_times"]],
                    float(raw["inter_session_gap"]),
                )
            )
        return SessionLog(sessions)

    def save(self, path: Union[str, Path]) -> None:
        """Write the log as JSON to ``path``."""
        Path(path).write_text(json.dumps(self.to_dict()))

    @staticmethod
    def load(path: Union[str, Path]) -> "SessionLog":
        return SessionLog.from_dict(json.loads(Path(path).read_text()))

    # -- inspection ------------------------------------------------------------
    @property
    def total_requests(self) -> int:
        return sum(plan.total_requests for plan in self.sessions)

    def __len__(self) -> int:
        return len(self.sessions)


class ReplayWorkload:
    """Replays a :class:`SessionLog`; drop-in for :class:`SurgeWorkload`.

    Each caller stream walks the log cyclically from an offset derived
    from its RNG, so concurrent clients replay different (but fixed)
    subsequences.  ``sample_session(rng)`` matches the SurgeWorkload
    interface used by :class:`~repro.workload.httperf.EmulatedClient`.
    """

    def __init__(self, log: SessionLog) -> None:
        if len(log) == 0:
            raise ValueError("cannot replay an empty session log")
        self.log = log
        self._cursors: dict = {}

    def sample_session(self, rng: np.random.Generator) -> SessionPlan:
        """Next session of this stream's cyclic walk over the log."""
        key = _stream_key(rng)
        cursor = self._cursors.get(key)
        if cursor is None:
            # Deterministic starting offset per client stream.
            cursor = int(rng.integers(len(self.log)))
        plan = self.log.sessions[cursor % len(self.log)]
        self._cursors[key] = cursor + 1
        return plan


def _stream_key(rng: np.random.Generator) -> tuple:
    """Identity of the stream ``rng`` is drawing from.

    The handles of one :class:`~repro.sim.rng.RandomStreams` all draw
    through the same ``Generator``, so the object alone does not tell
    two clients apart.  PCG64's increment does: it selects the stream,
    differs between seeds and never changes as the stream advances.
    """
    state = rng.bit_generator.state["state"]
    return id(rng), state.get("inc")
