"""Regeneration of every figure in the paper's evaluation.

Every sweep-backed figure is data: :data:`FIGURES` maps each generator
name (``"figure_3"``, ``"ablation_idle_timeout"``, ...) to its
subfigure rows, and :meth:`FigureRunner.figure` builds any of them (the
paper's evaluation is entirely figures; there are no numeric tables).
Runs are cached by (server, scenario, sweep profile), so e.g. figure 2
reuses figure 1's runs and figures 3-4 reuse the best-configuration
subsets — exactly as the paper derives them from the same experiments.

Use :class:`FigureRunner` directly, or the per-figure benchmarks in
``benchmarks/`` which print the series as tables.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..metrics.report import RunMetrics, format_table
from ..osmodel.machine import MachineSpec
from ..overload import LIFO, CoDelShedder, OverloadControl, TokenBucket
from .params import (
    BEST_HTTPD,
    BEST_NIO_SMP,
    BEST_NIO_UP,
    HTTPD_SMP_POOLS,
    HTTPD_UP_POOLS,
    NIO_SMP_WORKERS,
    NIO_UP_WORKERS,
    ServerSpec,
)
from .scenarios import (
    PROFILES,
    SMP_GIGABIT,
    UP_DUAL_FAST_ETHERNET,
    UP_FAST_ETHERNET,
    UP_GIGABIT,
    MeasurementProfile,
    Scenario,
)
from .store import RunStore, canonical
from .sweep import SweepResult, sweep_clients

if TYPE_CHECKING:  # the cluster package imports this one
    from ..cluster.spec import ClusterSpec, FlashCrowdSpec

__all__ = [
    "Series",
    "FigureData",
    "Subfigure",
    "FIGURES",
    "FigureRunner",
    "PAPER_FIGURES",
]


# -- metric getters ----------------------------------------------------------

def _throughput(m: RunMetrics) -> float:
    return m.throughput_rps


def _response_ms(m: RunMetrics) -> float:
    return m.response_time_mean * 1e3


def _connection_ms(m: RunMetrics) -> float:
    return m.connection_time_mean * 1e3


def _timeout_rate(m: RunMetrics) -> float:
    return m.client_timeout_rate


def _reset_rate(m: RunMetrics) -> float:
    return m.connection_reset_rate


def _bandwidth_mbs(m: RunMetrics) -> float:
    return m.bandwidth_mbytes_per_s


def _p99_ms(m: RunMetrics) -> float:
    return m.response_time_p99 * 1e3


def _queue_share_pct(m: RunMetrics) -> float:
    return m.server_stats.get("obs_queue_share", 0.0) * 100.0


def _service_share_pct(m: RunMetrics) -> float:
    return m.server_stats.get("obs_service_share", 0.0) * 100.0


@dataclass
class Series:
    """One line of a figure."""

    label: str
    x: List[int]
    y: List[float]


@dataclass
class FigureData:
    """The data behind one (sub)figure of the paper."""

    figure_id: str
    title: str
    xlabel: str
    ylabel: str
    series: List[Series] = field(default_factory=list)
    notes: str = ""

    def table(self) -> str:
        """Side-by-side table: clients vs every series."""
        if not self.series:
            return f"{self.figure_id}: (no data)"
        rows = []
        xs = self.series[0].x
        for i, x in enumerate(xs):
            row: Dict[str, object] = {"clients": x}
            for s in self.series:
                row[s.label] = round(s.y[i], 2) if i < len(s.y) else ""
            rows.append(row)
        title = f"[{self.figure_id}] {self.title} ({self.ylabel})"
        out = format_table(rows, title=title)
        if self.notes:
            out += f"\n  note: {self.notes}"
        return out

    def to_dict(self) -> Dict:
        """JSON-serialisable representation of the figure."""
        return {
            "figure_id": self.figure_id,
            "title": self.title,
            "xlabel": self.xlabel,
            "ylabel": self.ylabel,
            "notes": self.notes,
            "series": [
                {"label": s.label, "x": list(s.x), "y": list(s.y)}
                for s in self.series
            ],
        }

    def chart(self, logy: bool = False, width: int = 68, height: int = 16) -> str:
        """ASCII line chart of the figure (see repro.metrics.plot)."""
        from ..metrics.plot import ascii_chart

        return ascii_chart(
            [(s.label, s.x, s.y) for s in self.series],
            width=width,
            height=height,
            logy=logy,
            title=f"[{self.figure_id}] {self.title}",
            xlabel=self.xlabel,
            ylabel=self.ylabel,
        )


#: One line of a sweep figure: the sweep behind it and its label.
Config = Tuple[ServerSpec, Scenario, str]


@dataclass(frozen=True)
class Subfigure:
    """One row of :data:`FIGURES`: a (sub)figure plotted against clients.

    Each configuration is swept over the profile's client counts and
    becomes one series, in order, with ``metric`` on the y axis.
    """

    figure_id: str
    title: str
    ylabel: str
    metric: Callable[[RunMetrics], float]
    configs: Tuple[Config, ...]
    notes: str = ""


# -- shared lineups ----------------------------------------------------------

_NIO_UP = tuple(
    (ServerSpec.nio(w), UP_GIGABIT, f"{w} thread{'s' if w > 1 else ''}")
    for w in NIO_UP_WORKERS
)
_HTTPD_UP = tuple(
    (ServerSpec.httpd(p), UP_GIGABIT, f"{p} threads") for p in HTTPD_UP_POOLS
)
_NIO_SMP = tuple(
    (ServerSpec.nio(w), SMP_GIGABIT, f"{w} threads") for w in NIO_SMP_WORKERS
)
_HTTPD_SMP = tuple(
    (ServerSpec.httpd(p), SMP_GIGABIT, f"{p} threads")
    for p in HTTPD_SMP_POOLS
)
#: The best UP pair, and each best configuration from 1 to 4 CPUs.
_BEST_UP = (
    (BEST_NIO_UP, UP_GIGABIT, "nio"), (BEST_HTTPD, UP_GIGABIT, "httpd"),
)
_NIO_CPUS = (
    (BEST_NIO_UP, UP_GIGABIT, "UP"), (BEST_NIO_SMP, SMP_GIGABIT, "SMP"),
)
_HTTPD_CPUS = (
    (BEST_HTTPD, UP_GIGABIT, "UP"), (BEST_HTTPD, SMP_GIGABIT, "SMP"),
)
#: The best pair under 100 Mbit, 2x100 Mbit and 1 Gbit.
_NETWORKS = tuple(
    (server, scenario, f"{name} {net}")
    for scenario, net in (
        (UP_FAST_ETHERNET, "100Mbps"),
        (UP_DUAL_FAST_ETHERNET, "200Mbps"),
        (UP_GIGABIT, "1Gbit"),
    )
    for server, name in ((BEST_NIO_UP, "NIO"), (BEST_HTTPD, "Httpd"))
)
_NO_OVERHEAD = Scenario(
    "UP-1G-noOvh",
    MachineSpec(cpus=1, mgmt_overhead_per_thread=0.0),
    UP_GIGABIT.network,
)
#: The uncontrolled httpd, a token bucket capped just under the
#: saturated establishment rate (~510 conn/s on UP-1G), and CoDel on
#: the accept queue (shedding on standing delay, not rate) with LIFO.
_ADMISSION = (
    (BEST_HTTPD, UP_GIGABIT, "httpd"),
    (
        ServerSpec("httpd", 4096, overload=OverloadControl(
            admission=TokenBucket(rate=520.0, burst=64.0),
        )),
        UP_GIGABIT,
        "httpd+token-bucket",
    ),
    (
        ServerSpec("httpd", 4096, overload=OverloadControl(
            admission=CoDelShedder(target=0.05, interval=0.5),
            discipline=LIFO,
        )),
        UP_GIGABIT,
        "httpd+codel+lifo",
    ),
)
#: Observed servers on the bandwidth-bounded testbed.  Queue wait counts
#: every second a client made no progress (SYN retransmission, backlog,
#: unserved requests), including the failed connections httperf
#: excludes; service counts CPU service plus response streaming.
_OBSERVED = tuple(
    (ServerSpec(kind, threads, observe=True), UP_FAST_ETHERNET, label)
    for kind, threads, label in (
        ("nio", 1, "nio-1w"),
        ("httpd", 896, "httpd-896t"),
        ("httpd", 4096, "httpd-4096t"),
    )
)

#: Every sweep-backed figure, by generator name: the ten paper figures,
#: then the ablations (A1, A2, A4, A5) and extensions (extBW, A3, extOC,
#: extLB).  Rows are subfigures in order; x is always the client count.
FIGURES: Dict[str, Tuple[Subfigure, ...]] = {
    "figure_1": (
        Subfigure("fig1a", "NIO UP throughput", "replies/s", _throughput,
                  _NIO_UP),
        Subfigure("fig1b", "Httpd UP throughput", "replies/s", _throughput,
                  _HTTPD_UP),
    ),
    "figure_2": (
        Subfigure("fig2a", "NIO UP response time", "ms", _response_ms,
                  _NIO_UP),
        Subfigure("fig2b", "Httpd UP response time", "ms", _response_ms,
                  _HTTPD_UP,
                  "httpd means exclude timed-out/reset victims (httperf "
                  "semantics), hence the deceptively low values"),
    ),
    "figure_3": (
        Subfigure("fig3a", "Client timeout errors", "errors/s",
                  _timeout_rate, _BEST_UP),
        Subfigure("fig3b", "Connection reset errors", "errors/s",
                  _reset_rate, _BEST_UP,
                  "nio never idle-reaps, so its reset rate is zero"),
    ),
    "figure_4": (
        Subfigure("fig4", "NIO vs httpd UP connection time", "ms",
                  _connection_ms, (
                      (BEST_NIO_UP, UP_GIGABIT, "NIO 1 thread"),
                      (ServerSpec.httpd(896), UP_GIGABIT,
                       "httpd 896 threads"),
                      (BEST_HTTPD, UP_GIGABIT, "httpd 4096 threads"),
                      (ServerSpec.httpd(6000), UP_GIGABIT,
                       "httpd 6000 threads"),
                  )),
    ),
    "figure_5": (
        Subfigure("fig5", "NIO vs Httpd throughput (UP)", "replies/s",
                  _throughput, _NETWORKS),
    ),
    "figure_6": (
        Subfigure("fig6", "NIO vs Httpd response time (UP)", "ms",
                  _response_ms, _NETWORKS),
    ),
    "figure_7": (
        Subfigure("fig7a", "NIO SMP throughput", "replies/s", _throughput,
                  _NIO_SMP),
        Subfigure("fig7b", "Httpd SMP throughput", "replies/s", _throughput,
                  _HTTPD_SMP),
    ),
    "figure_8": (
        Subfigure("fig8a", "NIO SMP response time", "ms", _response_ms,
                  _NIO_SMP),
        Subfigure("fig8b", "Httpd SMP response time", "ms", _response_ms,
                  _HTTPD_SMP),
    ),
    "figure_9": (
        Subfigure("fig9a", "NIO throughput 1->4 CPUs", "replies/s",
                  _throughput, _NIO_CPUS),
        Subfigure("fig9b", "Httpd throughput 1->4 CPUs", "replies/s",
                  _throughput, _HTTPD_CPUS),
    ),
    "figure_10": (
        Subfigure("fig10a", "NIO response time 1->4 CPUs", "ms",
                  _response_ms, _NIO_CPUS),
        Subfigure("fig10b", "Httpd response time 1->4 CPUs", "ms",
                  _response_ms, _HTTPD_CPUS),
    ),
    "ablation_thread_overhead": (
        Subfigure("ablA1", "Thread-management overhead ablation",
                  "replies/s", _throughput, (
                      (BEST_HTTPD, UP_GIGABIT, "4096t"),
                      (ServerSpec.httpd(6000), UP_GIGABIT, "6000t"),
                      (BEST_HTTPD, _NO_OVERHEAD, "4096t no-ovh"),
                      (ServerSpec.httpd(6000), _NO_OVERHEAD, "6000t no-ovh"),
                  ),
                  "removing per-thread overhead recovers big-pool peak"),
    ),
    "ablation_idle_timeout": (
        Subfigure("ablA2", "Idle-timeout ablation (httpd 4096)", "resets/s",
                  _reset_rate, tuple(
                      (ServerSpec.httpd(4096, idle_timeout=t), UP_GIGABIT,
                       f"timeout {label}")
                      for t, label in (
                          (5.0, "5s"), (15.0, "15s"), (60.0, "60s"),
                          (1e9, "inf"),
                      )
                  ),
                  "longer idle timeouts trade resets for held threads"),
    ),
    "ablation_selector_strategy": (
        Subfigure("ablA4", "Selector strategy (nio 2w, SMP)", "replies/s",
                  _throughput, (
                      (BEST_NIO_SMP, SMP_GIGABIT, "shared selector"),
                      (ServerSpec("nio", 2, selector_strategy="partitioned"),
                       SMP_GIGABIT, "partitioned selectors"),
                  ),
                  "Netty-style per-worker selectors vs the paper's shared "
                  "ready set"),
    ),
    "ablation_dynamic_pool": (
        Subfigure("ablA5", "Dynamic vs static thread pool (httpd)",
                  "replies/s", _throughput, (
                      (BEST_HTTPD, UP_GIGABIT, "static 4096"),
                      (ServerSpec("httpd", 4096, dynamic_pool=True),
                       UP_GIGABIT, "dynamic (max 4096)"),
                  ),
                  "dynamic pools only pay thread overhead for threads the "
                  "load actually needs"),
    ),
    "extension_bandwidth_usage": (
        Subfigure("extBW", "Bandwidth usage (UP, 1 Gbit)", "MB/s",
                  _bandwidth_mbs, (
                      (BEST_NIO_UP, UP_GIGABIT, "nio MB/s"),
                      (BEST_HTTPD, UP_GIGABIT, "httpd MB/s"),
                  ),
                  "paper: always under 40 MB/s, linear in replies/s"),
    ),
    "extension_staged_smp": (
        Subfigure("extA3", "Staged/AMPED extension on SMP", "replies/s",
                  _throughput, (
                      (BEST_NIO_SMP, SMP_GIGABIT, "nio-2w"),
                      (ServerSpec.staged(2), SMP_GIGABIT, "staged-2w"),
                      (ServerSpec.amped(4), SMP_GIGABIT, "amped-4h"),
                      (BEST_HTTPD, SMP_GIGABIT, "httpd-4096t"),
                  ),
                  "the paper's future-work pipeline, plus Flash AMPED"),
    ),
    "extension_overload_control": (
        Subfigure("extOCa", "Connection reset errors w/ admission control",
                  "errors/s", _reset_rate, _ADMISSION,
                  "shedding at SYN time shrinks the idle keep-alive "
                  "population that reaping resets"),
        Subfigure("extOCb", "Client timeout errors w/ admission control",
                  "errors/s", _timeout_rate, _ADMISSION,
                  "the flip side: shed SYNs burn retransmission time and "
                  "surface as connect-phase timeouts"),
        Subfigure("extOCc", "Goodput w/ admission control", "replies/s",
                  _throughput, _ADMISSION,
                  "the token bucket caps establishment just under "
                  "saturation, so goodput stays near the peak"),
    ),
    "extension_latency_breakdown": (
        Subfigure("extLBa", "Queue-wait share of client time (UP, 100 Mbit)",
                  "% of time", _queue_share_pct, _OBSERVED,
                  "includes failed connections httperf excludes from "
                  "response-time stats"),
        Subfigure("extLBb",
                  "Service-time share of client time (UP, 100 Mbit)",
                  "% of time", _service_share_pct, _OBSERVED,
                  "nio streams everyone concurrently, so its time is honest "
                  "service time"),
    ),
}

#: Generators that run cluster sweeps or one observed run instead.
_CLUSTER_FIGURES = ("extension_cluster_scaling", "extension_cluster_timeline")


class FigureRunner:
    """Runs and caches the sweeps behind all paper figures."""

    def __init__(
        self,
        profile: MeasurementProfile = PROFILES["quick"],
        seed: int = 42,
        verbose: bool = False,
        jobs: Optional[int] = None,
        store: Optional[RunStore] = None,
    ) -> None:
        self.profile = profile
        self.seed = seed
        self.verbose = verbose
        #: Sweep points fan out over this many worker processes
        #: (``None``/1 = serial, 0 = one per CPU).  Results are
        #: byte-identical either way; see :mod:`repro.core.runner`.
        self.jobs = jobs
        #: Content-addressed result store (``None`` = always run live).
        #: With a store, figure data is read from persisted points —
        #: already-stored points are not re-run, so an interrupted
        #: regeneration resumes and a warm one costs only file reads.
        self.store = store
        #: Sweeps by content key (:meth:`sweep`, :meth:`cluster_sweep`).
        self._cache: Dict[str, SweepResult] = {}

    # -- sweep plumbing ------------------------------------------------------
    def sweep(self, server: ServerSpec, scenario: Scenario) -> SweepResult:
        """Cached client sweep of ``server`` in ``scenario``."""
        return self._cached(
            (server, scenario), f"{server.label} on {scenario.name}",
            self.profile.clients, sweep_clients, server, scenario,
        )

    def cluster_sweep(
        self, cluster: ClusterSpec, flash: Optional[FlashCrowdSpec] = None
    ) -> SweepResult:
        """Cached client sweep of ``cluster``, with an optional flash crowd.

        Clusters get a quarter of the profile's client counts (at least
        30 each), so three modest replicas are driven past saturation.
        """
        from ..cluster import sweep_cluster

        clients: List[int] = []
        for c in self.profile.clients:
            scaled = max(30, c // 4)
            if scaled not in clients:
                clients.append(scaled)
        return self._cached(
            (cluster, flash), f"cluster {cluster.label}", clients,
            sweep_cluster, cluster, flash=flash,
        )

    def _cached(self, key, what, clients, run, *args, **kwargs) -> SweepResult:
        """``run(*args, clients, ...)`` once per content key.

        The key is the store's content form of every configuration
        value, not a label: labels omit policy parameters, replica CPU
        speeds, client classes and flash specs.
        """
        key = json.dumps(canonical(key), sort_keys=True)
        result = self._cache.get(key)
        if result is None:
            if self.verbose:
                print(
                    f"[figures] sweeping {what} ({len(clients)} points)...",
                    file=sys.stderr,
                )
            result = self._cache[key] = run(
                *args,
                clients,
                duration=self.profile.duration,
                warmup=self.profile.warmup,
                seed=self.seed,
                point_hook=self._progress if self.verbose else None,
                jobs=self.jobs,
                store=self.store,
                **kwargs,
            )
        return result

    def _progress(self, metrics: RunMetrics) -> None:
        print(
            f"[figures]   clients={metrics.clients:5d} "
            f"replies/s={metrics.throughput_rps:8.1f}",
            file=sys.stderr,
        )

    # -- figures -------------------------------------------------------------
    def figure(self, name: str) -> List[FigureData]:
        """Build the figure generator ``name`` (``"figure_3"``, ...).

        A :data:`FIGURES` entry plots one cached sweep per configuration
        row by row; the two cluster figures run their own methods.  Any
        other name raises ``ValueError``.
        """
        if name in _CLUSTER_FIGURES:
            return getattr(self, name)()
        if name not in FIGURES:
            raise ValueError(f"unknown figure generator {name!r}")
        return [
            FigureData(
                row.figure_id, row.title, "clients", row.ylabel,
                [self._series(config, row.metric) for config in row.configs],
                notes=row.notes,
            )
            for row in FIGURES[name]
        ]

    def _series(
        self, config: Config, metric: Callable[[RunMetrics], float]
    ) -> Series:
        server, scenario, label = config
        sweep = self.sweep(server, scenario)
        return Series(label, sweep.clients, sweep.metric(metric))

    def extension_cluster_scaling(self) -> List[FigureData]:
        """Cluster extension: balancer policy and cache tier at scale.

        Three under-provisioned nio replicas — the third at 30% of its
        siblings' CPU speed — behind each balancer policy, swept across a
        client range that drives the tier from under-load past the
        straggler's saturation.  Round robin keeps feeding the slow box
        its full share, so cluster p99 tracks the straggler; least
        connections steers around it.  The cache series mounts a 64 MB
        LRU in front of the lc tier (Zipf popularity makes even a small
        cache absorb a large reply share).  The flash-crowd subfigure
        replays the same surge against rr and lc and records the
        measured policy gap in its notes — the ISSUE's acceptance
        check.
        """
        from ..cluster import CacheSpec, FlashCrowdSpec, straggler_cluster

        speed, straggler = 0.12, 0.3
        cache = CacheSpec(capacity_bytes=64 * 1024 * 1024)
        policies = [
            ("round_robin", "rr", None),
            ("least_connections", "lc", None),
            ("consistent_hash", "chash", None),
            ("least_connections", "lc+cache", cache),
        ]
        sweeps = {
            label: self.cluster_sweep(
                straggler_cluster(
                    policy=policy,
                    cpu_speed=speed,
                    straggler_factor=straggler,
                    cache=cache_spec,
                )
            )
            for policy, label, cache_spec in policies
        }
        goodput = [
            Series(label, s.clients, s.metric(_throughput))
            for label, s in sweeps.items()
        ]
        p99 = [
            Series(label, s.clients, s.metric(_p99_ms))
            for label, s in sweeps.items()
        ]

        flash = FlashCrowdSpec(
            at=self.profile.warmup + self.profile.duration * 0.25,
            surge_clients=600,
            decay=1.5,
        )
        flash_sweeps = {
            label: self.cluster_sweep(
                straggler_cluster(
                    policy=policy, cpu_speed=speed,
                    straggler_factor=straggler,
                ),
                flash=flash,
            )
            for policy, label in [
                ("round_robin", "rr"), ("least_connections", "lc"),
            ]
        }
        rr_pts = flash_sweeps["rr"].points
        lc_pts = flash_sweeps["lc"].points
        peak = max(
            range(len(rr_pts)), key=lambda i: rr_pts[i].response_time_p99
        )
        rr_p99 = rr_pts[peak].response_time_p99 * 1e3
        lc_p99 = lc_pts[peak].response_time_p99 * 1e3
        gain = (1.0 - lc_p99 / rr_p99) * 100.0 if rr_p99 > 0 else 0.0
        flash_series = [
            Series(label, s.clients, s.metric(_p99_ms))
            for label, s in flash_sweeps.items()
        ]
        return [
            FigureData(
                "extCLa", "Cluster goodput by balancer policy",
                "clients", "replies/s",
                goodput,
                notes="3 nio replicas, straggler at 30% speed; lc routes "
                      "around the slow box, the cache tier absorbs the "
                      "Zipf-popular replies",
            ),
            FigureData(
                "extCLb", "Cluster p99 response time by balancer policy",
                "clients", "p99 ms",
                p99,
                notes="rr p99 tracks the straggler once it saturates",
            ),
            FigureData(
                "extCLc", "Flash crowd: p99 under a 600-client surge",
                "clients", "p99 ms",
                flash_series,
                notes=(
                    f"at {rr_pts[peak].clients} clients lc improves surge "
                    f"p99 by {gain:.1f}% over rr "
                    f"({lc_p99:.0f} vs {rr_p99:.0f} ms)"
                ),
            ),
        ]

    def extension_cluster_timeline(self) -> List[FigureData]:
        """Observability extension: the cluster timeline under stress.

        One observed run — a 120-client flash crowd surging into the
        straggler lc+cache cluster while replica r0 rolls through
        drain/down/warming — rendered as time series instead of one
        folded-up number.  Subfigure a is per-tier p99 response time per
        0.5 s bin (the straggler's saturation and the restart hole are
        visible *when* they happen); subfigure b overlays cluster
        throughput, SYN shed rate, cache hit rate, and r0's availability
        state (3=up 2=warming 1=draining 0=down).  The run mounts the
        declarative SLOs, and the note pins the sim time the
        availability burn-rate alert fired at.  A Chrome-trace sample of
        the slowest requests is stashed on ``self.trace_sample`` for the
        benchmark to write as a CI artifact.
        """
        import dataclasses
        import math

        from ..cluster import (
            CacheSpec,
            FlashCrowdSpec,
            restart_point,
            straggler_cluster,
        )
        from ..obs import default_slos, traces_to_chrome_trace

        cluster = dataclasses.replace(
            straggler_cluster(
                policy="least_connections",
                cache=CacheSpec(capacity_bytes=32 * 1024 * 1024),
            ),
            observe=True,
            slos=default_slos(),
        )
        warmup, duration = 2.0, 6.0
        point = restart_point(
            cluster, clients=32, duration=duration, warmup=warmup,
            seed=self.seed,
        )
        point = dataclasses.replace(
            point,
            flash=FlashCrowdSpec(at=2.6, surge_clients=120, decay=1.2),
        )
        if self.verbose:
            print(
                "[figures] running observed cluster timeline "
                f"({cluster.label}, flash+restart)...",
                file=sys.stderr,
            )
        experiment = point.experiment()
        experiment.run()
        telemetry = experiment.telemetry
        horizon = warmup + duration
        t1 = horizon
        bin_w = telemetry.series.bin_width

        def p99_ms(recorder):
            _, values = recorder.quantile_series("response_time_s", 99, 0.0, t1)
            # Empty bins read as nan; plot them as zero-height gaps.
            return [0.0 if math.isnan(v) else v * 1e3 for v in values]

        times, _ = telemetry.series.quantile_series(
            "response_time_s", 99, 0.0, t1
        )
        bins = [int(t / bin_w) for t in times]
        tier_p99 = [Series("cluster", bins, p99_ms(telemetry.series))]
        for name in sorted(telemetry.tier_series):
            tier_p99.append(
                Series(name, bins, p99_ms(telemetry.tier_series[name]))
            )

        _, replies = telemetry.series.rate_series("replies", 0.0, t1)
        _, sheds = telemetry.series.rate_series("syns_dropped", 0.0, t1)
        _, hits = telemetry.series.rate_series("cache_hits", 0.0, t1)
        _, lookups = telemetry.series.rate_series("cache_lookups", 0.0, t1)
        hit_pct = [
            (h / l) * 100.0 if l > 0 else 0.0 for h, l in zip(hits, lookups)
        ]
        level = {"up": 3.0, "warming": 2.0, "draining": 1.0, "down": 0.0}
        rid = point.restart.rid
        bands = telemetry.state_bands(rid, 0.0, t1)
        states = []
        for b in bins:
            mid = (b + 0.5) * bin_w
            # Bands tile [0, t1], so exactly one contains each bin centre.
            states.append(
                next(level[s] for s, lo, hi in bands if lo <= mid < hi)
            )

        alerts = [
            (monitor.spec.name, alert.fired_at)
            for monitor in telemetry.monitors
            for alert in monitor.alerts
        ]
        if alerts:
            slo_note = "; ".join(
                f"SLO {name!r} fired at t={fired:.3f}s"
                for name, fired in alerts
            )
        else:  # pragma: no cover - the pinned config always fires
            slo_note = "no SLO alert fired"
        self.trace_sample = traces_to_chrome_trace(
            telemetry.tracer.slowest(8)
        )
        return [
            FigureData(
                "extCTa", "Cluster timeline: per-tier p99 under stress",
                f"sim time ({bin_w:g} s bins)", "p99 ms",
                tier_p99,
                notes=(
                    f"flash crowd at t=2.6s, {rid} drains 3.2s / down 4.4s "
                    f"/ warms 5.6s; {slo_note}"
                ),
            ),
            FigureData(
                "extCTb", "Cluster timeline: throughput, shed, cache, state",
                f"sim time ({bin_w:g} s bins)", "mixed",
                [
                    Series("replies/s", bins, replies),
                    Series("sheds/s", bins, sheds),
                    Series("cache hit %", bins, hit_pct),
                    Series(f"{rid} state", bins, states),
                ],
                notes=(
                    f"{rid} state levels: 3=up 2=warming 1=draining 0=down; "
                    f"{slo_note}"
                ),
            ),
        ]


    # -- everything ---------------------------------------------------------
    def run_figures(
        self, names: Optional[Tuple[str, ...]] = None
    ) -> Dict[str, List[FigureData]]:
        """Regenerate the named figures (default: all paper figures).

        Names are generator names (``"figure_3"``,
        ``"extension_overload_control"``, ...; see :meth:`figure`), and
        the result keeps their order.  Sweeps are shared through the
        runner cache, and each sweep's points fan out over ``self.jobs``
        workers.
        """
        return {
            name: self.figure(name)
            for name in (names if names is not None else PAPER_FIGURES)
        }


#: Names of the paper-figure generators, in paper order.
PAPER_FIGURES = tuple(f"figure_{i}" for i in range(1, 11))
