"""SURGE-derived session model.

The paper configures httperf to replay a SURGE-derived distribution:
each emulated client runs *sessions* averaging ~6.2 requests (the paper
reports ~6.5); within a session, requests come in *groups* (a page plus
pipelined embedded objects) separated by heavy-tailed think (OFF) times.
Think times exceeding the server's idle timeout are what produce httpd2's
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

    Defaults give 6.19 requests per session (the paper reports ~6.5;
    see :meth:`mean_requests_per_session`) and an offered load of roughly
    0.9 requests/s per emulated client, so the paper's 60-6000 client
    range spans under-load to well past saturation of a single modelled
    CPU.
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
        """Expected requests per sampled session (6.19 at the defaults).

        A group holds ``max(1, int(X))`` objects for ``X`` the embedded
        bounded Pareto, so ``P(size >= j) = min(1, (k/j)^alpha)`` for
        ``2 <= j <= max_group_size`` and the mean group size is one plus
        their sum — not the continuous Pareto mean, which the truncation
        to whole objects undercuts.
        """
        k, alpha = self.embedded_k, self.embedded_alpha
        group_mean = 1.0 + sum(
            min(1.0, (k / j) ** alpha)
            for j in range(2, int(self.max_group_size) + 1)
        )
        return self.groups_per_session * group_mean


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
        """Draw a complete session plan.

        Three generator calls: the geometric group count, one uniform per
        group for the group sizes, then one block of uniforms for the
        file picks, the think gaps and the inter-session gap, in that
        order.  ``rng.random(n)`` consumes the stream exactly as ``n``
        scalar draws do, so each value (and the generator's position
        afterwards) is the one drawing them one at a time would give.
        Requests are the population's shared instances
        (:meth:`FilePopulation.request_for`).
        """
        n_groups = max(1, int(self._groups.sample(rng)))
        embedded = self._embedded.from_uniform
        group_sizes = [
            max(1, int(embedded(u))) for u in rng.random(n_groups).tolist()
        ]
        n_picks = sum(group_sizes)
        inter_session = self.config.inter_session_think
        draws = rng.random(n_picks + n_groups - 1 + (1 if inter_session else 0))
        files = self.files
        request_for = files.request_for
        requests = [
            request_for(f) for f in files.pick_files(draws[:n_picks]).tolist()
        ]
        think = self._think.from_uniform
        think_times = [think(u) for u in draws[n_picks:].tolist()]
        gap = think_times.pop() if inter_session else 0.0
        groups: List[List[Request]] = []
        cursor = 0
        for n_objects in group_sizes:
            groups.append(requests[cursor:cursor + n_objects])
            cursor += n_objects
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
