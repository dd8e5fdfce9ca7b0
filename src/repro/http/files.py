"""SURGE-style virtual file population.

The paper's workload distributions were "extracted from the SURGE workload
generator" (Barford & Crovella, SIGMETRICS 1998).  SURGE models a web
server's document set with:

* a *hybrid* file-size distribution — a lognormal body for the mass of
  small documents plus a heavy Pareto tail of large ones;
* a Zipf-like popularity ranking, so a few files absorb most requests.

:class:`FilePopulation` materialises one such document set with a fixed
seedable layout, so the simulated servers, the live servers (which write
the files to a real docroot) and the workload generator all agree on what
``/file/123`` means.

Parameters are calibrated so the *mean transfer size* lands in the
10-20 KB range consistent with the paper's observed bandwidth (< 40 MB/s
at peak reply rates on the 1 Gbit configuration).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike

from .messages import Request

__all__ = [
    "FilePopulation",
    "clear_population_cache",
    "population_cache_stats",
]

#: Memoized populations keyed by (seed, n_files, extra kwargs); every
#: point of a client-count sweep uses the same seed, so without this the
#: N points regenerate N identical document sets.  Bounded FIFO.
_POPULATION_CACHE: Dict[tuple, "FilePopulation"] = {}
_POPULATION_CACHE_MAX = 32

#: Hit/miss counters for the population cache, surfaced by the CLI
#: summaries (``repro run/sweep/figures``); a "miss" is a population
#: actually built.
_POPULATION_CACHE_STATS = {"hits": 0, "misses": 0}


def clear_population_cache() -> None:
    """Drop all memoized populations (tests, memory pressure)."""
    _POPULATION_CACHE.clear()


def population_cache_stats(reset: bool = False) -> Dict[str, int]:
    """Snapshot of the population-cache hit/miss counters."""
    out = dict(_POPULATION_CACHE_STATS)
    if reset:
        _POPULATION_CACHE_STATS["hits"] = 0
        _POPULATION_CACHE_STATS["misses"] = 0
    return out


class FilePopulation:
    """An immutable set of virtual files with sizes and popularity."""

    def __init__(
        self,
        rng: np.random.Generator,
        n_files: int = 2000,
        body_mu: float = 8.8,
        body_sigma: float = 1.0,
        tail_fraction: float = 0.02,
        tail_alpha: float = 1.2,
        tail_k: float = 80_000.0,
        max_bytes: int = 5 * 1024 * 1024,
        min_bytes: int = 128,
        zipf_exponent: float = 0.8,
    ) -> None:
        if n_files < 1:
            raise ValueError("need at least one file")
        if not (0.0 <= tail_fraction < 1.0):
            raise ValueError("tail fraction must be in [0, 1)")
        self.n_files = n_files
        self.max_bytes = max_bytes

        # Hybrid body/tail sizes.
        sizes = np.exp(rng.normal(body_mu, body_sigma, size=n_files))
        n_tail = int(round(tail_fraction * n_files))
        if n_tail:
            tail_idx = rng.choice(n_files, size=n_tail, replace=False)
            # Pareto via inverse CDF: k * U^(-1/alpha).
            u = rng.random(n_tail)
            sizes[tail_idx] = tail_k * u ** (-1.0 / tail_alpha)
        self.sizes = np.clip(sizes, min_bytes, max_bytes).astype(np.int64)

        # Zipf-like popularity over a random permutation of the files, so
        # popularity is independent of size (as SURGE matches them).
        ranks = np.arange(1, n_files + 1, dtype=np.float64)
        weights = ranks ** (-zipf_exponent)
        probs = weights / weights.sum()
        self._popularity_order = rng.permutation(n_files)
        self._probs = probs
        # Inverse-CDF sampling is ~20x faster than rng.choice(p=...).
        self._cdf = np.cumsum(probs)
        self._cdf[-1] = 1.0
        # Populations are shared across sweep points (see shared());
        # freezing the arrays turns any accidental mutation into an error
        # instead of cross-point contamination.
        for arr in (self.sizes, self._popularity_order, self._probs, self._cdf):
            arr.setflags(write=False)
        # One shared Request per file, built on first use (request_for).
        self._requests: List[Optional[Request]] = [None] * n_files

    @classmethod
    def shared(cls, seed: int, n_files: int = 2000, **kwargs) -> "FilePopulation":
        """Memoized population for ``(seed, n_files, kwargs)``.

        Byte-identical to ``FilePopulation(RandomStreams(seed)
        .stream("files"), n_files=n_files, **kwargs)`` — the same named
        stream derivation the :class:`~repro.core.experiment.Experiment`
        uses — but built once per process instead of once per sweep
        point.  Populations are immutable (arrays are read-only), so
        sharing is safe.
        """
        from ..sim.rng import RandomStreams

        key = (int(seed), int(n_files), tuple(sorted(kwargs.items())))
        cached = _POPULATION_CACHE.get(key)
        if cached is not None:
            _POPULATION_CACHE_STATS["hits"] += 1
            return cached
        _POPULATION_CACHE_STATS["misses"] += 1
        population = cls(
            RandomStreams(seed).stream("files"), n_files=n_files, **kwargs
        )
        if len(_POPULATION_CACHE) >= _POPULATION_CACHE_MAX:
            _POPULATION_CACHE.pop(next(iter(_POPULATION_CACHE)))
        _POPULATION_CACHE[key] = population
        return population

    # -- sampling ------------------------------------------------------------
    def pick_files(self, uniforms: ArrayLike) -> np.ndarray:
        """File ids for uniform draws in [0, 1), by popularity inverse CDF.

        The one mapping from uniforms to files: :meth:`sample_file`,
        :meth:`sample_files` and the session sampler all go through it.
        """
        return self._popularity_order[
            self._cdf.searchsorted(uniforms, side="right")
        ]

    def sample_file(self, rng: np.random.Generator) -> Tuple[int, int]:
        """Draw ``(file_id, size_bytes)`` according to popularity."""
        file_id = int(self.pick_files(rng.random()))
        return file_id, int(self.sizes[file_id])

    def sample_files(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Vectorised draw of ``count`` file ids."""
        return self.pick_files(rng.random(count))

    def request_for(self, file_id: int) -> Request:
        """The population's one ``GET`` :class:`Request` for ``file_id``.

        Built on first use and shared by every session that picks the
        file, so resident request state is bounded by the population
        size, not by the number of emulated requests.
        """
        request = self._requests[file_id]
        if request is None:
            request = self._requests[file_id] = Request(
                path=f"/file/{file_id}",
                response_bytes=int(self.sizes[file_id]),
                file_id=int(file_id),
            )
        return request

    # -- inspection ------------------------------------------------------------
    def size_of(self, file_id: int) -> int:
        """Size in bytes of one file."""
        return int(self.sizes[file_id])

    @property
    def mean_size(self) -> float:
        """Unweighted mean file size (bytes)."""
        return float(self.sizes.mean())

    def mean_transfer_size(self) -> float:
        """Popularity-weighted expected transfer size (bytes)."""
        probs_by_file = np.zeros(self.n_files)
        probs_by_file[self._popularity_order] = self._probs
        return float((probs_by_file * self.sizes).sum())

    @property
    def total_bytes(self) -> int:
        return int(self.sizes.sum())

    def __len__(self) -> int:
        return self.n_files

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FilePopulation(n={self.n_files}, "
            f"mean={self.mean_size / 1024:.1f} KB)"
        )
