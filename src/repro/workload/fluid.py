"""Aggregated "fluid" client populations for million-client scale mode.

The discrete load generator (:mod:`repro.workload.httperf`) pays O(n)
simulation state for ``n`` emulated clients: one generator process, one
random-stream handle and one pending timer per client.  That is faithful
and fast up to the paper's 6000 clients, but it is the harness — not the
SUT — that dominates at 100k-1M concurrent sessions (per-connection
objects, per-client timers, per-session RNG draws).

This module replaces the population with one *fluid* session source
that keeps O(bins + budget) state, and whose numpy transients stay
bounded by a fixed chunk however large a cohort grows:

* client-side waiting (ramp offsets, SYN-retry backoff, the 10 s abandon
  deadline, inter-session gaps) is aggregated into *cohorts* — counts in
  bin-quantised batch timers, one bare kernel callback per bin — with
  inverse-CDF deterministic ramp offsets and vectorised numpy draws from
  one RNG stream, ``fluid[all]``, keyed off the run seed;
* discrete events are emitted only where a connection touches the server
  boundary: up to ``budget`` sessions are *materialized* at a time as
  pooled, free-listed ``__slots__`` drivers running the unmodified
  :class:`~repro.workload.httperf.EmulatedClient` session logic against
  real :class:`~repro.net.tcp.Connection` objects, and overflow SYN mass
  hitting a full backlog is charged to the SUT in one batch
  (:meth:`~repro.net.tcp.ListenSocket.drop_flood`).

Equivalence contract (like the kernel's against its reference kernel):
when the whole population fits the boundary budget (``n <= budget`` or
``budget is None``) the generator *pins* every client by starting the
discrete :class:`~repro.workload.httperf.LoadGenerator` population, so
runs are byte-identical to discrete mode.  Beyond the budget the
aggregate regime engages and equivalence is statistical; the fidelity
contract is that ``budget`` must exceed the server's useful concurrency
(the marginal aggregated client's fate — a client timeout — is then the
same fate the discrete model would hand it).  See DESIGN.md §13 and
``tests/test_fluid_equivalence.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..metrics.collectors import CLIENT_TIMEOUT, MetricsHub
from ..net.tcp import SYN_RETRANSMIT_GAPS, ListenSocket
from ..sim.core import Simulator
from ..sim.rng import RandomStreams
from .httperf import EmulatedClient, HttperfConfig, LoadGenerator
from .surge import SurgeWorkload

__all__ = ["FluidConfig", "FluidLoadGenerator"]

#: Cohort stage marker: the batch has exhausted its SYN retries and
#: abandons (one CLIENT_TIMEOUT per session) when its bin fires.
_ABANDON = -1
#: Sessions binned per numpy pass when seeding the ramp or re-queueing
#: an abandoned batch.
_RAMP_CHUNK = 1 << 16
#: Client-side batch-timer quantum: aggregate cohorts fire on multiples
#: of this, aligned with the kernel wheel's default tick.
_BIN_S = 0.5


@dataclass(frozen=True)
class FluidConfig:
    """The aggregation budget of one fluid run."""

    #: Maximum concurrently *materialized* (discrete-boundary) sessions;
    #: ``None`` = every client is pinned discrete (no aggregation).
    budget: Optional[int] = 4096

    def __post_init__(self) -> None:
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be >= 1 (or None)")


def _attempt_offsets(timeout: float) -> List[float]:
    """SYN attempt times (relative to first send) before abandoning.

    Mirrors :meth:`Connection.connect`: sends at 0 s then after the
    Linux-2.4 backoff gaps, abandoning at the client socket timeout.
    """
    offsets = [0.0]
    t = SYN_RETRANSMIT_GAPS[0]
    i = 0
    while t < timeout - 1e-12:
        offsets.append(t)
        i += 1
        t += SYN_RETRANSMIT_GAPS[min(i, len(SYN_RETRANSMIT_GAPS) - 1)]
    return offsets


def _ramp_bins(n: int, ramp: float, bin_s: float) -> List[Tuple[int, int]]:
    """``(bin index, count)`` pairs, in bin order, for ``n`` ramp starts.

    Client ``i`` starts at the midpoint quantile ``ramp * (2i + 1) / 2n``
    and lands in bin ``offset // bin_s + 1``.  The offsets are computed
    over ``_RAMP_CHUNK`` clients at a time, so a million-client population
    needs a few MB of set-up memory instead of five ``n``-element
    arrays.  They rise with ``i``, so a bin split between two chunks is
    the last of one and the first of the next, and merging the two gives
    the counts one pass over all ``n`` would.
    """
    out: List[Tuple[int, int]] = []
    for start in range(0, n, _RAMP_CHUNK):
        i = np.arange(start, min(start + _RAMP_CHUNK, n))
        offsets = ramp * (2.0 * i + 1.0) / (2.0 * n)
        idx = (offsets // bin_s).astype(np.int64) + 1
        bins, counts = np.unique(idx, return_counts=True)
        for b, k in zip(bins.tolist(), counts.tolist()):
            if out and out[-1][0] == b:
                out[-1] = (b, out[-1][1] + k)
            else:
                out.append((b, k))
    return out


def _gap_bins(
    workload: SurgeWorkload, rng: np.random.Generator, count: int, t: float
) -> List[Tuple[int, int]]:
    """``(bin index, count)`` pairs, in bin order, for ``count`` sessions
    that re-enter the arrival stream an inter-session gap after ``t``.

    The gaps are drawn from ``rng`` and binned ``_RAMP_CHUNK`` sessions
    per numpy pass, so a batch of 160k abandoned sessions needs about
    2 MB of transient arrays instead of 4 MB.  Chunked draws continue
    the stream exactly where one draw of ``count`` would.  The gaps are
    random, so a bin recurs across chunks; the merged counts come back
    in bin order, as one pass over all ``count`` gaps gives them.
    """
    counts: Dict[int, int] = {}
    for start in range(0, count, _RAMP_CHUNK):
        gaps = workload.sample_gaps(rng, min(_RAMP_CHUNK, count - start))
        idx = ((t + gaps) // _BIN_S).astype(np.int64) + 1
        bins, ks = np.unique(idx, return_counts=True)
        for b, k in zip(bins.tolist(), ks.tolist()):
            counts[b] = counts.get(b, 0) + k
    return sorted(counts.items())


class _FluidSession:
    """Pooled per-session client state driving one discrete session.

    The session-execution generators are the *same code objects* as the
    discrete client's — borrowed from :class:`EmulatedClient` below — so
    the server boundary sees byte-for-byte identical behaviour per
    materialized session; only the surrounding population bookkeeping is
    aggregated.  ``__slots__`` + the generator's free list keep the
    per-session footprint to one small object reused across sessions.
    """

    __slots__ = ("sim", "listener", "duplex", "metrics", "config")

    # Unmodified discrete session semantics (see class docstring).
    _connect = EmulatedClient._connect
    _send_group = EmulatedClient._send_group
    _collect_replies = EmulatedClient._collect_replies
    _serve_locally = EmulatedClient._serve_locally
    _run_session = EmulatedClient._run_session
    _finish_span = EmulatedClient._finish_span


class FluidLoadGenerator(LoadGenerator):
    """Drop-in for :class:`LoadGenerator` backed by one fluid source."""

    def __init__(
        self,
        sim: Simulator,
        listener: ListenSocket,
        network,
        workload: SurgeWorkload,
        metrics: MetricsHub,
        n_clients: int,
        streams: RandomStreams,
        config: Optional[HttperfConfig] = None,
        fluid: Optional[FluidConfig] = None,
    ) -> None:
        super().__init__(
            sim, listener, network, workload, metrics, n_clients, streams,
            config,
        )
        self.fluid = fluid or FluidConfig()

        self._aggregate = False
        #: The ``fluid[all]`` stream (aggregate regime only).
        self._rng: Optional[np.random.Generator] = None
        self._offsets = _attempt_offsets(self.config.client_timeout)
        # Cohort bins: bin index -> {(attempt, start): count}.
        self._bins: Dict[int, Dict[tuple, int]] = {}
        self._scheduled: set = set()
        self._free = 0
        self._pool: List[_FluidSession] = []
        self._link_rr = 0

        # Counters for stats()/BENCH_scale.json.
        self.sessions_materialized = 0
        self.sessions_abandoned = 0
        self.flood_syn_drops = 0
        self.pool_peak = 0

    # -- setup ---------------------------------------------------------------
    def start(self, ramp: float = 2.0) -> None:
        """Start the population: pinned discrete or aggregated fluid."""
        budget = self.fluid.budget
        if budget is None or self.n_clients <= budget:
            # The whole population fits the boundary budget: pin every
            # client exactly as the discrete generator does.
            super().start(ramp)
            self.sessions_materialized = self.n_clients
        else:
            self._start_aggregate(ramp, budget)

    def _start_aggregate(self, ramp: float, budget: int) -> None:
        """Population exceeds the budget: aggregate it into cohorts.

        The initial session starts are inverse-CDF deterministic offsets
        — the midpoint quantiles of a uniform over ``[0, ramp]`` — binned
        arithmetically, no RNG and no per-client timers.
        """
        self._aggregate = True
        self._free = budget
        self._rng = self.streams.stream("fluid[all]")
        n = self.n_clients
        if ramp <= 0.0:
            self._enqueue(n, 0, None, 0.0)
            return
        for bin_idx, k in _ramp_bins(n, ramp, _BIN_S):
            self._enqueue(k, 0, None, float(bin_idx) * _BIN_S)

    # -- cohort machinery ----------------------------------------------------
    def _enqueue(
        self,
        count: int,
        attempt: int,
        start: Optional[float],
        at: float,
    ) -> None:
        """Add ``count`` sessions to the bin covering ``at``.

        ``attempt`` is the SYN-ladder stage (``_ABANDON`` = the batch
        times out when the bin fires); ``start`` anchors the ladder (new
        arrivals get their firing bin's boundary).
        """
        idx = math.ceil(at / _BIN_S - 1e-9)
        now = self.sim.now
        if idx * _BIN_S <= now:
            idx = int(now / _BIN_S) + 1
        if start is None:
            start = idx * _BIN_S
        cohorts = self._bins.get(idx)
        if cohorts is None:
            cohorts = self._bins[idx] = {}
        key = (attempt, start)
        cohorts[key] = cohorts.get(key, 0) + count
        if idx not in self._scheduled:
            self._scheduled.add(idx)
            # One bare callback per bin: bins are never cancelled.
            self.sim.call_later(idx * _BIN_S - now, self._fire_bin, idx)

    def _fire_bin(self, idx: int) -> None:
        """Process every cohort due in bin ``idx``."""
        self._scheduled.discard(idx)
        cohorts = self._bins.pop(idx, None)
        if not cohorts:
            return
        t = idx * _BIN_S
        for (attempt, start), count in cohorts.items():
            if attempt == _ABANDON:
                self._abandon(count, t)
                continue
            promote = count if count < self._free else self._free
            if promote:
                self._materialize(promote)
            rest = count - promote
            if not rest:
                continue
            # The overflow SYN mass touches the boundary: a full backlog
            # drops it (and bills the SUT's reject cost) exactly as it
            # would drop the discrete clients' SYNs.  A backlog with
            # room but no free boundary slot is a budget shortfall — the
            # batch retries without a server-side touch (see the budget
            # contract in the module docstring).
            if self.listener.would_drop_syn:
                self.listener.drop_flood(rest)
                self.flood_syn_drops += rest
            nxt = attempt + 1
            if nxt < len(self._offsets):
                self._enqueue(rest, nxt, start, start + self._offsets[nxt])
            else:
                self._enqueue(
                    rest, _ABANDON, start, start + self.config.client_timeout
                )

    def _abandon(self, count: int, t: float) -> None:
        """``count`` sessions hit the client timeout without connecting."""
        self.metrics.record_errors(CLIENT_TIMEOUT, count)
        self.sessions_abandoned += count
        # Each session re-enters the arrival stream after its gap.
        for bin_idx, k in _gap_bins(self.workload, self._rng, count, t):
            self._enqueue(k, 0, None, float(bin_idx) * _BIN_S)

    # -- the discrete boundary ----------------------------------------------
    def _materialize(self, k: int) -> None:
        """Promote ``k`` aggregated sessions to discrete boundary drivers."""
        self._free -= k
        self.sessions_materialized += k
        pool = self._pool
        for _ in range(k):
            sess = pool.pop() if pool else _FluidSession()
            sess.sim = self.sim
            sess.listener = self.listener
            sess.metrics = self.metrics
            sess.config = self.config
            sess.duplex = self.network.link_for_client(self._link_rr)
            self._link_rr += 1
            self.sim.process(self._drive(sess), name="fluid")

    def _drive(self, sess: _FluidSession):
        """Generator: one full discrete session, then back to the fluid."""
        plan = self.workload.sample_session(self._rng)
        ok = yield from sess._run_session(plan)
        if ok:
            self.metrics.record_session()
        gap = plan.inter_session_gap
        self._free += 1
        self._release(sess)
        self._enqueue(1, 0, None, self.sim.now + gap)

    def _release(self, sess: _FluidSession) -> None:
        """Return a session driver to the free list, references cleared."""
        sess.duplex = None
        sess.metrics = None
        sess.listener = None
        self._pool.append(sess)
        if len(self._pool) > self.pool_peak:
            self.pool_peak = len(self._pool)

    # -- reporting -----------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Fluid-population counters, merged into ``server_stats``."""
        budget = self.fluid.budget
        return {
            "fluid.aggregate": 1 if self._aggregate else 0,
            # Always one population; the key stays because the e2e row
            # digests hash every server_stats key.
            "fluid.classes": 1,
            "fluid.budget": -1 if budget is None else budget,
            "fluid.sessions_materialized": self.sessions_materialized,
            "fluid.sessions_abandoned": self.sessions_abandoned,
            "fluid.flood_syn_drops": self.flood_syn_drops,
            "fluid.pool_peak": self.pool_peak,
        }
