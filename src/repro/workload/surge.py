"""SURGE-derived session model.

The paper configures httperf to replay a SURGE-derived distribution:
each emulated client runs *sessions* averaging ~6.5 requests; within a
session, requests come in *groups* (a page plus pipelined embedded
objects) separated by heavy-tailed think (OFF) times.  Think times
exceeding the server's idle timeout are what produce httpd2's
connection-reset errors, so their Pareto tail matters.

:class:`SurgeWorkload` samples :class:`SessionPlan` objects; the load
generator (:mod:`repro.workload.httperf`) executes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..http.files import FilePopulation
from ..http.messages import Request
from .distributions import BoundedPareto, Geometric

__all__ = [
    "SurgeConfig",
    "SessionPlan",
    "SurgeWorkload",
    "workload_cache_stats",
]


@dataclass(frozen=True)
class SurgeConfig:
    """Knobs of the SURGE session model (defaults follow the paper).

    Defaults give ~6.5 requests per session (the paper's figure) and an
    offered load of roughly 0.6 requests/s per emulated client, so the
    paper's 60-6000 client range spans under-load to well past saturation
    of a single modelled CPU.
    """

    #: Mean request groups (active periods) per session.
    groups_per_session: float = 4.8
    #: Embedded-object count per group: SURGE uses Pareto(alpha=2.43).
    embedded_alpha: float = 2.43
    embedded_k: float = 1.0
    #: Cap on pipelined objects per group (client pipeline depth).
    max_group_size: int = 4
    #: Think/OFF time between groups: SURGE Pareto(alpha=1.5).  The scale
    #: k is calibrated so one emulated client offers ~1 request/s, putting
    #: the paper's 6000-client top load just past twice the modelled
    #: uniprocessor capacity (so SMP doubling is observable), while the
    #: Pareto tail (P[think > 15 s] ~ 0.5%) still drives visible
    #: connection-reset rates against the 15 s server idle timeout.
    think_alpha: float = 1.5
    think_k: float = 0.45
    think_max: float = 100.0
    #: Pause between sessions of the same emulated client.
    inter_session_think: bool = True

    def think_distribution(self) -> BoundedPareto:
        """The OFF-time (think) distribution."""
        return BoundedPareto(self.think_k, self.think_alpha, self.think_max)

    def groups_distribution(self) -> Geometric:
        """Request groups (active periods) per session."""
        return Geometric(self.groups_per_session)

    def embedded_distribution(self) -> BoundedPareto:
        """Pipelined embedded objects per group."""
        return BoundedPareto(
            self.embedded_k, self.embedded_alpha, float(self.max_group_size)
        )

    def mean_requests_per_session(self) -> float:
        """Analytic estimate (the paper's ~6.5)."""
        return self.groups_per_session * min(
            self.embedded_distribution().mean(), self.max_group_size
        )


@dataclass
class SessionPlan:
    """A concrete sampled session: request groups and think gaps."""

    groups: List[List[Request]]
    think_times: List[float]  # one per gap *between* groups
    inter_session_gap: float

    @property
    def total_requests(self) -> int:
        return sum(len(g) for g in self.groups)


#: Memoized workloads keyed by (population identity, config): the
#: distribution objects are immutable and sampling is driven entirely by
#: the caller's RNG, so one instance serves every point of a sweep.
_WORKLOAD_CACHE: dict = {}
_WORKLOAD_CACHE_MAX = 64

#: Hit/miss counters, surfaced by the CLI summaries next to the
#: population cache's (see ``workload_cache_stats``).
_WORKLOAD_CACHE_STATS = {"hits": 0, "misses": 0}


def workload_cache_stats(reset: bool = False) -> dict:
    """Snapshot of the session-workload cache hit/miss counters."""
    out = dict(_WORKLOAD_CACHE_STATS)
    if reset:
        _WORKLOAD_CACHE_STATS["hits"] = 0
        _WORKLOAD_CACHE_STATS["misses"] = 0
    return out


class SurgeWorkload:
    """Samples sessions against a :class:`FilePopulation`.

    Instances hold no sampling state of their own — every draw comes from
    the ``rng`` handed to :meth:`sample_session` — so one workload can be
    shared across experiments (see :meth:`shared`).
    """

    def __init__(
        self,
        files: FilePopulation,
        config: Optional[SurgeConfig] = None,
    ) -> None:
        self.files = files
        self.config = config or SurgeConfig()
        self._think = self.config.think_distribution()
        self._groups = self.config.groups_distribution()
        self._embedded = self.config.embedded_distribution()

    @classmethod
    def shared(
        cls,
        files: FilePopulation,
        config: Optional[SurgeConfig] = None,
    ) -> "SurgeWorkload":
        """Memoized workload for ``(files, config)``.

        Pairs with :meth:`FilePopulation.shared`: when the population is
        the process-wide cached instance, the workload (and its
        precomputed distribution objects) is reused too instead of being
        rebuilt at every sweep point.
        """
        config = config or SurgeConfig()
        key = (id(files), config)
        cached = _WORKLOAD_CACHE.get(key)
        # Guard against id() reuse after the population was collected:
        # the cached entry must reference the *same* population object.
        if cached is not None and cached.files is files:
            _WORKLOAD_CACHE_STATS["hits"] += 1
            return cached
        _WORKLOAD_CACHE_STATS["misses"] += 1
        workload = cls(files, config)
        if len(_WORKLOAD_CACHE) >= _WORKLOAD_CACHE_MAX:
            _WORKLOAD_CACHE.pop(next(iter(_WORKLOAD_CACHE)))
        _WORKLOAD_CACHE[key] = workload
        return workload

    def sample_session(self, rng: np.random.Generator) -> SessionPlan:
        """Draw a complete session plan."""
        n_groups = max(1, int(self._groups.sample(rng)))
        group_sizes = [
            max(1, int(self._embedded.sample(rng))) for _ in range(n_groups)
        ]
        # One vectorised popularity draw for the whole session.
        file_ids = self.files.sample_files(rng, sum(group_sizes))
        sizes = self.files.sizes[file_ids]
        groups: List[List[Request]] = []
        cursor = 0
        for n_objects in group_sizes:
            group = [
                Request(
                    path=f"/file/{file_ids[cursor + j]}",
                    response_bytes=int(sizes[cursor + j]),
                    file_id=int(file_ids[cursor + j]),
                )
                for j in range(n_objects)
            ]
            cursor += n_objects
            groups.append(group)
        think_times = [self._think.sample(rng) for _ in range(n_groups - 1)]
        gap = (
            self._think.sample(rng)
            if self.config.inter_session_think
            else 0.0
        )
        return SessionPlan(groups, think_times, gap)

    def sample_gaps(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """Vectorised draw of ``k`` inter-session gaps.

        One numpy call for a whole fluid cohort; each element follows the
        same bounded-Pareto law :meth:`sample_session` draws its
        ``inter_session_gap`` from.
        """
        if not self.config.inter_session_think:
            return np.zeros(k)
        think = self._think
        return np.minimum(
            think.k * rng.random(k) ** (-1.0 / think.alpha), think.upper
        )

    # -- analytics -----------------------------------------------------------
    def offered_load_per_client(self, mean_response_time: float = 0.1) -> float:
        """Rough requests/s one emulated client offers in steady state."""
        cfg = self.config
        reqs = cfg.mean_requests_per_session()
        thinks = (cfg.groups_per_session - 1.0) + (
            1.0 if cfg.inter_session_think else 0.0
        )
        cycle = thinks * self._think.mean() + reqs * mean_response_time
        return reqs / cycle if cycle > 0 else 0.0

    def reset_exposure_probability(self, server_idle_timeout: float) -> float:
        """P(one think gap outlives the server's idle timeout)."""
        return self._think.tail_probability(server_idle_timeout)
