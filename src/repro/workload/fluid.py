"""Aggregated "fluid" client populations for million-client scale mode.

The discrete load generator (:mod:`repro.workload.httperf`) pays O(n)
simulation state for ``n`` emulated clients: one generator process, one
numpy ``Generator`` and one pending timer per client.  That is faithful
and fast up to the paper's 6000 clients, but it is the harness — not the
SUT — that dominates at 100k-1M concurrent sessions (per-connection
objects, per-client timers, per-session RNG draws).

This module replaces the population with per-class *fluid* session
sources that keep O(classes + bins + budget) state:

* the population is split across :class:`FluidClass` entries by weight
  (error-diffusion apportioning over classes sorted by name, so class
  order never matters);
* client-side waiting (ramp offsets, SYN-retry backoff, the 10 s abandon
  deadline, inter-session gaps) is aggregated into *cohorts* — counts in
  bin-quantised batch timers scheduled through the kernel's timing wheel
  — with inverse-CDF deterministic ramp offsets and vectorised numpy
  draws from per-class RNG streams keyed ``fluid[<class>]`` off the run
  seed (name-keyed like the cluster tier's replica streams, so streams
  are independent of construction order);
* discrete events are emitted only where a connection touches the server
  boundary: up to ``budget`` sessions are *materialized* at a time as
  pooled, free-listed ``__slots__`` drivers running the unmodified
  :class:`~repro.workload.httperf.EmulatedClient` session logic against
  real :class:`~repro.net.tcp.Connection` objects, and overflow SYN mass
  hitting a full backlog is charged to the SUT in one batch
  (:meth:`~repro.net.tcp.ListenSocket.drop_flood`).

Equivalence contract (mirrors the timing wheel's heap-only reference
kernel): when the whole population fits the boundary budget (``n <=
budget`` or ``budget is None``) the generator *pins* every client as a
persistent discrete :class:`EmulatedClient` with the same per-client
streams (``client[i]``), start offsets (``ramp * i / n``) and link
round-robin the discrete generator uses — runs are byte-identical to
discrete mode as long as no class overrides its access link.  Beyond the
budget the aggregate regime engages and equivalence is statistical; the
fidelity contract is that ``budget`` must exceed the server's useful
concurrency (the marginal aggregated client's fate — a client timeout —
is then the same fate the discrete model would hand it).  See DESIGN.md
§13 and ``tests/test_fluid_equivalence.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..metrics.collectors import CLIENT_TIMEOUT, MetricsHub
from ..net.link import DuplexLink
from ..net.tcp import SYN_RETRANSMIT_GAPS, ListenSocket
from ..net.topology import WIRE_EFFICIENCY
from ..sim.core import Simulator
from ..sim.rng import RandomStreams
from .httperf import EmulatedClient, HttperfConfig
from .surge import SurgeWorkload

__all__ = ["FluidClass", "FluidConfig", "FluidLoadGenerator"]

#: Cohort stage marker: the batch has exhausted its SYN retries and
#: abandons (one CLIENT_TIMEOUT per session) when its bin fires.
_ABANDON = -1


@dataclass(frozen=True)
class FluidClass:
    """One aggregated client class: a population share plus, optionally,
    WAN access-link conditions (``None`` = use the experiment network's
    client links, preserving discrete-mode equivalence)."""

    name: str
    #: Relative share of the client population.
    weight: float = 1.0
    #: Access bandwidth in bits/s; ``None`` = experiment network links.
    bandwidth_bps: Optional[float] = None
    #: Round-trip time of the class's access path (``None`` = network's).
    rtt_s: Optional[float] = None
    #: Per-transmission loss probability on the class link.
    loss: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("fluid class needs a name")
        if self.weight <= 0:
            raise ValueError("class weight must be positive")
        if self.bandwidth_bps is not None and self.bandwidth_bps <= 0:
            raise ValueError("class bandwidth must be positive")
        if self.rtt_s is not None and self.rtt_s < 0:
            raise ValueError("class rtt must be >= 0")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("class loss must be in [0, 1)")

    @property
    def wan(self) -> bool:
        """Whether this class carries its own access-link conditions."""
        return (
            self.bandwidth_bps is not None
            or self.rtt_s is not None
            or self.loss > 0.0
        )


@dataclass(frozen=True)
class FluidConfig:
    """Aggregation knobs for one fluid run."""

    #: The client classes; normalised to name order on construction so
    #: class order never matters — not for equality, store keys or rows.
    classes: Tuple[FluidClass, ...] = (FluidClass("all"),)
    #: Maximum concurrently *materialized* (discrete-boundary) sessions;
    #: ``None`` = every client is pinned discrete (no aggregation).
    budget: Optional[int] = 4096
    #: Client-side batch-timer quantum: aggregate cohorts fire on
    #: multiples of this, aligned with the kernel wheel's default tick.
    bin_s: float = 0.5

    def __post_init__(self) -> None:
        names = [c.name for c in self.classes]
        if not names:
            raise ValueError("fluid config needs at least one class")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate fluid class names: {sorted(names)}")
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be >= 1 (or None)")
        if self.bin_s <= 0:
            raise ValueError("bin_s must be positive")
        ordered = tuple(sorted(self.classes, key=lambda c: c.name))
        object.__setattr__(self, "classes", ordered)


def _apportion(n: int, classes: Tuple[FluidClass, ...]) -> List[int]:
    """Split ``n`` across classes by weight (largest remainder).

    Deterministic and order-stable: the cluster tier's apportioning
    discipline, applied to the name-sorted class tuple.
    """
    total = sum(c.weight for c in classes)
    shares = [n * c.weight / total for c in classes]
    counts = [int(s) for s in shares]
    order = sorted(
        range(len(classes)),
        key=lambda i: (-(shares[i] - counts[i]), classes[i].name),
    )
    for i in order[: n - sum(counts)]:
        counts[i] += 1
    return counts


def _interleave(n: int, classes: Tuple[FluidClass, ...]) -> List[int]:
    """Assign each global client index a class index by error diffusion.

    Pinned-regime counterpart of :func:`_apportion`: client ``i`` goes to
    the class with the largest running deficit, so every prefix of the
    population is split as close to the weights as possible.
    """
    total = sum(c.weight for c in classes)
    given = [0] * len(classes)
    out = []
    for i in range(n):
        deficits = [
            classes[k].weight / total * (i + 1) - given[k]
            for k in range(len(classes))
        ]
        k = max(range(len(classes)), key=lambda j: (deficits[j], -j))
        given[k] += 1
        out.append(k)
    return out


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


class _FluidSession:
    """Pooled per-session client state driving one discrete session.

    The session-execution generators are the *same code objects* as the
    discrete client's — borrowed from :class:`EmulatedClient` below — so
    the server boundary sees byte-for-byte identical behaviour per
    materialized session; only the surrounding population bookkeeping is
    aggregated.  ``__slots__`` + the generator's free list keep the
    per-session footprint to one small object reused across sessions.
    """

    __slots__ = (
        "sim",
        "index",
        "listener",
        "duplex",
        "workload",
        "metrics",
        "rng",
        "config",
    )

    # Unmodified discrete session semantics (see class docstring).
    _connect = EmulatedClient._connect
    _send_group = EmulatedClient._send_group
    _collect_replies = EmulatedClient._collect_replies
    _run_session = EmulatedClient._run_session
    _run_session_http10 = EmulatedClient._run_session_http10
    _finish_span = EmulatedClient._finish_span


class _ClassSource:
    """Per-class aggregate state: stream, link and bookkeeping."""

    __slots__ = ("spec", "count", "rng", "duplex", "pname")

    def __init__(self, spec, count, rng, duplex) -> None:
        self.spec = spec
        self.count = count
        self.rng = rng
        self.duplex = duplex  # None = rotate the experiment network links
        self.pname = f"fluid-{spec.name}"


class FluidLoadGenerator:
    """Drop-in for :class:`LoadGenerator` backed by fluid class sources."""

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
        if n_clients < 1:
            raise ValueError("need at least one client")
        self.sim = sim
        self.listener = listener
        self.network = network
        self.workload = workload
        self.metrics = metrics
        self.n_clients = n_clients
        self.streams = streams
        self.config = config or HttperfConfig()
        self.fluid = fluid or FluidConfig()
        #: Pinned regime only: the persistent discrete clients.
        self.clients: List[EmulatedClient] = []

        self._aggregate = False
        self._sources: List[_ClassSource] = []
        self._offsets = _attempt_offsets(self.config.client_timeout)
        # Cohort bins: bin index -> {(source, attempt, start): count}.
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
    def _class_links(self) -> Dict[str, Optional[DuplexLink]]:
        """One shared access duplex per WAN class (``None`` for non-WAN)."""
        links: Dict[str, Optional[DuplexLink]] = {}
        for cls in self.fluid.classes:
            if not cls.wan:
                links[cls.name] = None
                continue
            base = self.network.spec.links[0]
            bandwidth = (
                cls.bandwidth_bps / 8.0 * WIRE_EFFICIENCY
                if cls.bandwidth_bps is not None
                else base.payload_bytes_per_s
            )
            latency = (
                cls.rtt_s / 2.0 if cls.rtt_s is not None else base.latency_s
            )
            loss_rng = (
                self.streams.stream(f"fluidloss[{cls.name}]")
                if cls.loss > 0.0
                else None
            )
            links[cls.name] = DuplexLink(
                self.sim,
                bandwidth,
                latency_s=latency,
                name=f"fluid-{cls.name}",
                loss=cls.loss,
                loss_rng=loss_rng,
            )
        return links

    def start(self, ramp: float = 2.0) -> None:
        """Start the population: pinned discrete or aggregated fluid."""
        budget = self.fluid.budget
        if budget is None or self.n_clients <= budget:
            self._start_pinned(ramp)
        else:
            self._start_aggregate(ramp, budget)

    def _start_pinned(self, ramp: float) -> None:
        """Whole population fits the boundary budget: pin every client.

        Reproduces the discrete generator exactly — same ``client[i]``
        streams, same start offsets, same link round-robin, same process
        names — so fluid-mode rows are byte-identical to discrete-mode
        rows whenever no class carries WAN overrides (the equivalence
        gate the scale mode is pinned by).
        """
        links = self._class_links()
        classes = self.fluid.classes
        assignment = (
            _interleave(self.n_clients, classes) if len(classes) > 1 else None
        )
        for i in range(self.n_clients):
            cls = classes[0] if assignment is None else classes[assignment[i]]
            duplex = links[cls.name]
            if duplex is None:
                duplex = self.network.link_for_client(i)
            rng = self.streams.spawn("client", i)
            client = EmulatedClient(
                self.sim,
                i,
                self.listener,
                duplex,
                self.workload,
                self.metrics,
                rng,
                self.config,
            )
            self.clients.append(client)
            offset = ramp * i / self.n_clients
            self.sim.process(client.run(start_delay=offset), name=f"client-{i}")
        self.sessions_materialized = self.n_clients

    def _start_aggregate(self, ramp: float, budget: int) -> None:
        """Population exceeds the budget: aggregate per-class cohorts."""
        self._aggregate = True
        self._free = budget
        links = self._class_links()
        counts = _apportion(self.n_clients, self.fluid.classes)
        for cls, count in zip(self.fluid.classes, counts):
            if count == 0:
                continue
            source = _ClassSource(
                cls,
                count,
                self.streams.stream(f"fluid[{cls.name}]"),
                links[cls.name],
            )
            self._sources.append(source)
            self._seed_arrivals(source, ramp)

    def _seed_arrivals(self, source: _ClassSource, ramp: float) -> None:
        """Bin the class's initial session starts over the ramp.

        Inverse-CDF deterministic offsets — the midpoint quantiles of a
        uniform over ``[0, ramp]`` — binned arithmetically, no RNG and no
        per-client timers.
        """
        n = source.count
        if ramp <= 0.0:
            self._enqueue(source, n, 0, None, 0.0)
            return
        offsets = ramp * (2.0 * np.arange(n) + 1.0) / (2.0 * n)
        idx = (offsets // self.fluid.bin_s).astype(np.int64) + 1
        for bin_idx, k in zip(*np.unique(idx, return_counts=True)):
            at = float(bin_idx) * self.fluid.bin_s
            self._enqueue(source, int(k), 0, None, at)

    # -- cohort machinery ----------------------------------------------------
    def _enqueue(
        self,
        source: _ClassSource,
        count: int,
        attempt: int,
        start: Optional[float],
        at: float,
    ) -> None:
        """Add ``count`` sessions of ``source`` to the bin covering ``at``.

        ``attempt`` is the SYN-ladder stage (``_ABANDON`` = the batch
        times out when the bin fires); ``start`` anchors the ladder (new
        arrivals get their firing bin's boundary).
        """
        bin_s = self.fluid.bin_s
        idx = math.ceil(at / bin_s - 1e-9)
        now = self.sim.now
        if idx * bin_s <= now:
            idx = int(now / bin_s) + 1
        if start is None:
            start = idx * bin_s
        cohorts = self._bins.get(idx)
        if cohorts is None:
            cohorts = self._bins[idx] = {}
        key = (source, attempt, start)
        cohorts[key] = cohorts.get(key, 0) + count
        if idx not in self._scheduled:
            self._scheduled.add(idx)
            delay = idx * bin_s - now
            # Batch timers ride the wheel when far enough out (one O(1)
            # slot per bin); near bins take the bare-callback heap path.
            if delay >= self.sim._wheel_tick:
                self.sim.schedule_timer(delay, self._fire_bin, idx)
            else:
                self.sim.call_later(delay, self._fire_bin, idx)

    def _fire_bin(self, idx: int) -> None:
        """Process every cohort due in bin ``idx``."""
        self._scheduled.discard(idx)
        cohorts = self._bins.pop(idx, None)
        if not cohorts:
            return
        t = idx * self.fluid.bin_s
        for (source, attempt, start), count in cohorts.items():
            if attempt == _ABANDON:
                self._abandon(source, count, t)
                continue
            promote = count if count < self._free else self._free
            if promote:
                self._materialize(source, promote)
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
                self._enqueue(source, rest, nxt, start, start + self._offsets[nxt])
            else:
                self._enqueue(
                    source, rest, _ABANDON, start,
                    start + self.config.client_timeout,
                )

    def _abandon(self, source: _ClassSource, count: int, t: float) -> None:
        """``count`` sessions hit the client timeout without connecting."""
        self.metrics.record_errors(CLIENT_TIMEOUT, count)
        self.sessions_abandoned += count
        # One vectorised draw covers the whole batch's inter-session
        # gaps; each session re-enters the arrival stream after its gap.
        gaps = self.workload.sample_gaps(source.rng, count)
        idx = ((t + gaps) // self.fluid.bin_s).astype(np.int64) + 1
        for bin_idx, k in zip(*np.unique(idx, return_counts=True)):
            at = float(bin_idx) * self.fluid.bin_s
            self._enqueue(source, int(k), 0, None, at)

    # -- the discrete boundary ----------------------------------------------
    def _materialize(self, source: _ClassSource, k: int) -> None:
        """Promote ``k`` aggregated sessions to discrete boundary drivers."""
        self._free -= k
        self.sessions_materialized += k
        pool = self._pool
        for _ in range(k):
            sess = pool.pop() if pool else _FluidSession()
            sess.sim = self.sim
            sess.listener = self.listener
            sess.workload = self.workload
            sess.metrics = self.metrics
            sess.config = self.config
            sess.rng = source.rng
            sess.index = self._link_rr
            duplex = source.duplex
            if duplex is None:
                duplex = self.network.link_for_client(self._link_rr)
                self._link_rr += 1
            sess.duplex = duplex
            self.sim.process(self._drive(sess, source), name=source.pname)

    def _drive(self, sess: _FluidSession, source: _ClassSource):
        """Generator: one full discrete session, then back to the fluid."""
        plan = self.workload.sample_session(sess.rng)
        ok = yield from sess._run_session(plan)
        if ok:
            self.metrics.record_session()
        gap = plan.inter_session_gap
        self._free += 1
        self._release(sess)
        self._enqueue(source, 1, 0, None, self.sim.now + gap)

    def _release(self, sess: _FluidSession) -> None:
        """Return a session driver to the free list, references cleared."""
        sess.rng = None
        sess.duplex = None
        sess.workload = None
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
            "fluid.classes": len(self.fluid.classes),
            "fluid.budget": -1 if budget is None else budget,
            "fluid.sessions_materialized": self.sessions_materialized,
            "fluid.sessions_abandoned": self.sessions_abandoned,
            "fluid.flood_syn_drops": self.flood_syn_drops,
            "fluid.pool_peak": self.pool_peak,
        }

