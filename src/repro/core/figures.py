"""Regeneration of every figure in the paper's evaluation.

Each ``figure_N`` method reproduces the data behind paper figure N (the
paper's evaluation is entirely figures; there are no numeric tables).
Runs are cached by (server, scenario, sweep profile), so e.g. figure 2
reuses figure 1's runs and figures 3-4 reuse the best-configuration
subsets — exactly as the paper derives them from the same experiments.

Use :class:`FigureRunner` directly, or the per-figure benchmarks in
``benchmarks/`` which print the series as tables.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..metrics.report import RunMetrics, format_table
from ..osmodel.machine import MachineSpec
from .params import (
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
from .store import RunStore
from .sweep import SweepResult, sweep_clients

__all__ = ["Series", "FigureData", "FigureRunner", "PAPER_FIGURES"]


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

    @staticmethod
    def from_dict(data: Dict) -> "FigureData":
        """Inverse of :meth:`to_dict`."""
        return FigureData(
            figure_id=data["figure_id"],
            title=data["title"],
            xlabel=data["xlabel"],
            ylabel=data["ylabel"],
            notes=data.get("notes", ""),
            series=[
                Series(s["label"], list(s["x"]), list(s["y"]))
                for s in data["series"]
            ],
        )

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
        self._cache: Dict[Tuple[str, str], SweepResult] = {}

    # -- sweep plumbing ------------------------------------------------------
    def sweep(self, server: ServerSpec, scenario: Scenario) -> SweepResult:
        """Cached client sweep of ``server`` in ``scenario``."""
        key = (repr(server), scenario.name)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if self.verbose:
            print(
                f"[figures] sweeping {server.label} on {scenario.name} "
                f"({self.profile.points} points)...",
                file=sys.stderr,
            )
        result = sweep_clients(
            server,
            scenario,
            self.profile.clients,
            duration=self.profile.duration,
            warmup=self.profile.warmup,
            seed=self.seed,
            point_hook=self._progress if self.verbose else None,
            jobs=self.jobs,
            store=self.store,
        )
        self._cache[key] = result
        return result

    def _progress(self, metrics: RunMetrics) -> None:
        print(
            f"[figures]   clients={metrics.clients:5d} "
            f"replies/s={metrics.throughput_rps:8.1f}",
            file=sys.stderr,
        )

    def _series(
        self,
        configs: List[Tuple[ServerSpec, Scenario, str]],
        metric: Callable[[RunMetrics], float],
    ) -> List[Series]:
        out = []
        for server, scenario, label in configs:
            sweep = self.sweep(server, scenario)
            out.append(Series(label, sweep.clients, sweep.metric(metric)))
        return out

    # -- paper figures ------------------------------------------------------
    def figure_1(self) -> List[FigureData]:
        """Throughput comparison on a uniprocessor (UP) system."""
        nio = [
            (ServerSpec.nio(w), UP_GIGABIT, f"{w} thread{'s' if w > 1 else ''}")
            for w in NIO_UP_WORKERS
        ]
        httpd = [
            (ServerSpec.httpd(p), UP_GIGABIT, f"{p} threads")
            for p in HTTPD_UP_POOLS
        ]
        return [
            FigureData(
                "fig1a", "NIO UP throughput", "clients", "replies/s",
                self._series(nio, _throughput),
            ),
            FigureData(
                "fig1b", "Httpd UP throughput", "clients", "replies/s",
                self._series(httpd, _throughput),
            ),
        ]

    def figure_2(self) -> List[FigureData]:
        """Response-time comparison on a uniprocessor (UP) system."""
        nio = [
            (ServerSpec.nio(w), UP_GIGABIT, f"{w} thread{'s' if w > 1 else ''}")
            for w in NIO_UP_WORKERS
        ]
        httpd = [
            (ServerSpec.httpd(p), UP_GIGABIT, f"{p} threads")
            for p in HTTPD_UP_POOLS
        ]
        note = (
            "httpd means exclude timed-out/reset victims "
            "(httperf semantics), hence the deceptively low values"
        )
        return [
            FigureData(
                "fig2a", "NIO UP response time", "clients", "ms",
                self._series(nio, _response_ms),
            ),
            FigureData(
                "fig2b", "Httpd UP response time", "clients", "ms",
                self._series(httpd, _response_ms), notes=note,
            ),
        ]

    def figure_3(self) -> List[FigureData]:
        """Connection errors (client timeouts and resets), best configs."""
        configs = [
            (ServerSpec.nio(1), UP_GIGABIT, "nio"),
            (ServerSpec.httpd(4096), UP_GIGABIT, "httpd"),
        ]
        return [
            FigureData(
                "fig3a", "Client timeout errors", "clients", "errors/s",
                self._series(configs, _timeout_rate),
            ),
            FigureData(
                "fig3b", "Connection reset errors", "clients", "errors/s",
                self._series(configs, _reset_rate),
                notes="nio never idle-reaps, so its reset rate is zero",
            ),
        ]

    def figure_4(self) -> List[FigureData]:
        """Connection time for the best nio and several httpd pools."""
        configs = [
            (ServerSpec.nio(1), UP_GIGABIT, "NIO 1 thread"),
            (ServerSpec.httpd(896), UP_GIGABIT, "httpd 896 threads"),
            (ServerSpec.httpd(4096), UP_GIGABIT, "httpd 4096 threads"),
            (ServerSpec.httpd(6000), UP_GIGABIT, "httpd 6000 threads"),
        ]
        return [
            FigureData(
                "fig4", "NIO vs httpd UP connection time", "clients", "ms",
                self._series(configs, _connection_ms),
            )
        ]

    def figure_5(self) -> List[FigureData]:
        """Throughput under 100 Mbit / 200 Mbit / 1 Gbit (best configs)."""
        configs = [
            (ServerSpec.nio(1), UP_FAST_ETHERNET, "NIO 100Mbps"),
            (ServerSpec.httpd(4096), UP_FAST_ETHERNET, "Httpd 100Mbps"),
            (ServerSpec.nio(1), UP_DUAL_FAST_ETHERNET, "NIO 200Mbps"),
            (ServerSpec.httpd(4096), UP_DUAL_FAST_ETHERNET, "Httpd 200Mbps"),
            (ServerSpec.nio(1), UP_GIGABIT, "NIO 1Gbit"),
            (ServerSpec.httpd(4096), UP_GIGABIT, "Httpd 1Gbit"),
        ]
        return [
            FigureData(
                "fig5", "NIO vs Httpd throughput (UP)", "clients", "replies/s",
                self._series(configs, _throughput),
            )
        ]

    def figure_6(self) -> List[FigureData]:
        """Response time under the three network configurations."""
        configs = [
            (ServerSpec.nio(1), UP_FAST_ETHERNET, "NIO 100Mbps"),
            (ServerSpec.httpd(4096), UP_FAST_ETHERNET, "Httpd 100Mbps"),
            (ServerSpec.nio(1), UP_DUAL_FAST_ETHERNET, "NIO 200Mbps"),
            (ServerSpec.httpd(4096), UP_DUAL_FAST_ETHERNET, "Httpd 200Mbps"),
            (ServerSpec.nio(1), UP_GIGABIT, "NIO 1Gbit"),
            (ServerSpec.httpd(4096), UP_GIGABIT, "Httpd 1Gbit"),
        ]
        return [
            FigureData(
                "fig6", "NIO vs Httpd response time (UP)", "clients", "ms",
                self._series(configs, _response_ms),
            )
        ]

    def figure_7(self) -> List[FigureData]:
        """Throughput comparison on the 4-way SMP system."""
        nio = [
            (ServerSpec.nio(w), SMP_GIGABIT, f"{w} threads")
            for w in NIO_SMP_WORKERS
        ]
        httpd = [
            (ServerSpec.httpd(p), SMP_GIGABIT, f"{p} threads")
            for p in HTTPD_SMP_POOLS
        ]
        return [
            FigureData(
                "fig7a", "NIO SMP throughput", "clients", "replies/s",
                self._series(nio, _throughput),
            ),
            FigureData(
                "fig7b", "Httpd SMP throughput", "clients", "replies/s",
                self._series(httpd, _throughput),
            ),
        ]

    def figure_8(self) -> List[FigureData]:
        """Response-time comparison on the 4-way SMP system."""
        nio = [
            (ServerSpec.nio(w), SMP_GIGABIT, f"{w} threads")
            for w in NIO_SMP_WORKERS
        ]
        httpd = [
            (ServerSpec.httpd(p), SMP_GIGABIT, f"{p} threads")
            for p in HTTPD_SMP_POOLS
        ]
        return [
            FigureData(
                "fig8a", "NIO SMP response time", "clients", "ms",
                self._series(nio, _response_ms),
            ),
            FigureData(
                "fig8b", "Httpd SMP response time", "clients", "ms",
                self._series(httpd, _response_ms),
            ),
        ]

    def figure_9(self) -> List[FigureData]:
        """Throughput scalability from 1 to 4 CPUs (best configs)."""
        nio = [
            (ServerSpec.nio(1), UP_GIGABIT, "UP"),
            (ServerSpec.nio(2), SMP_GIGABIT, "SMP"),
        ]
        httpd = [
            (ServerSpec.httpd(4096), UP_GIGABIT, "UP"),
            (ServerSpec.httpd(4096), SMP_GIGABIT, "SMP"),
        ]
        return [
            FigureData(
                "fig9a", "NIO throughput 1->4 CPUs", "clients", "replies/s",
                self._series(nio, _throughput),
            ),
            FigureData(
                "fig9b", "Httpd throughput 1->4 CPUs", "clients", "replies/s",
                self._series(httpd, _throughput),
            ),
        ]

    def figure_10(self) -> List[FigureData]:
        """Response-time scalability from 1 to 4 CPUs (best configs)."""
        nio = [
            (ServerSpec.nio(1), UP_GIGABIT, "UP"),
            (ServerSpec.nio(2), SMP_GIGABIT, "SMP"),
        ]
        httpd = [
            (ServerSpec.httpd(4096), UP_GIGABIT, "UP"),
            (ServerSpec.httpd(4096), SMP_GIGABIT, "SMP"),
        ]
        return [
            FigureData(
                "fig10a", "NIO response time 1->4 CPUs", "clients", "ms",
                self._series(nio, _response_ms),
            ),
            FigureData(
                "fig10b", "Httpd response time 1->4 CPUs", "clients", "ms",
                self._series(httpd, _response_ms),
            ),
        ]

    # -- ablations and extensions ---------------------------------------------
    def ablation_thread_overhead(self) -> List[FigureData]:
        """A1: throughput of big pools with management overhead disabled."""
        no_overhead = Scenario(
            "UP-1G-noOvh",
            MachineSpec(cpus=1, mgmt_overhead_per_thread=0.0),
            UP_GIGABIT.network,
        )
        configs = [
            (ServerSpec.httpd(4096), UP_GIGABIT, "4096t"),
            (ServerSpec.httpd(6000), UP_GIGABIT, "6000t"),
            (ServerSpec.httpd(4096), no_overhead, "4096t no-ovh"),
            (ServerSpec.httpd(6000), no_overhead, "6000t no-ovh"),
        ]
        return [
            FigureData(
                "ablA1", "Thread-management overhead ablation",
                "clients", "replies/s",
                self._series(configs, _throughput),
                notes="removing per-thread overhead recovers big-pool peak",
            )
        ]

    def ablation_idle_timeout(self) -> List[FigureData]:
        """A2: reset-error rate vs the server's idle-timeout setting."""
        configs = [
            (ServerSpec.httpd(4096, idle_timeout=t), UP_GIGABIT, f"{label}")
            for t, label in (
                (5.0, "timeout 5s"),
                (15.0, "timeout 15s"),
                (60.0, "timeout 60s"),
                (1e9, "timeout inf"),
            )
        ]
        return [
            FigureData(
                "ablA2", "Idle-timeout ablation (httpd 4096)",
                "clients", "resets/s",
                self._series(configs, _reset_rate),
                notes="longer idle timeouts trade resets for held threads",
            )
        ]

    def ablation_selector_strategy(self) -> List[FigureData]:
        """A4: shared selector (the paper's nio) vs per-worker selectors."""
        shared = ServerSpec("nio", 2, selector_strategy="shared")
        partitioned = ServerSpec("nio", 2, selector_strategy="partitioned")
        configs = [
            (shared, SMP_GIGABIT, "shared selector"),
            (partitioned, SMP_GIGABIT, "partitioned selectors"),
        ]
        return [
            FigureData(
                "ablA4", "Selector strategy (nio 2w, SMP)",
                "clients", "replies/s",
                self._series(configs, _throughput),
                notes="Netty-style per-worker selectors vs the paper's "
                      "shared ready set",
            )
        ]

    def ablation_dynamic_pool(self) -> List[FigureData]:
        """A5: Apache Min/MaxSpareThreads dynamic pool vs static pool."""
        static = ServerSpec.httpd(4096)
        dynamic = ServerSpec("httpd", 4096, dynamic_pool=True)
        configs = [
            (static, UP_GIGABIT, "static 4096"),
            (dynamic, UP_GIGABIT, "dynamic (max 4096)"),
        ]
        return [
            FigureData(
                "ablA5", "Dynamic vs static thread pool (httpd)",
                "clients", "replies/s",
                self._series(configs, _throughput),
                notes="dynamic pools only pay thread overhead for threads "
                      "the load actually needs",
            )
        ]

    def extension_bandwidth_usage(self) -> List[FigureData]:
        """Extended-report figure: bandwidth used by the best configs.

        The paper states a linear relation between achieved throughput and
        bandwidth, with usage always under 40 MB/s on the 1 Gbit link.
        """
        configs = [
            (ServerSpec.nio(1), UP_GIGABIT, "nio MB/s"),
            (ServerSpec.httpd(4096), UP_GIGABIT, "httpd MB/s"),
        ]
        return [
            FigureData(
                "extBW", "Bandwidth usage (UP, 1 Gbit)",
                "clients", "MB/s",
                self._series(
                    configs, lambda m: m.bandwidth_mbytes_per_s
                ),
                notes="paper: always under 40 MB/s, linear in replies/s",
            )
        ]

    def extension_staged_smp(self) -> List[FigureData]:
        """A3: staged (SEDA) pipeline vs nio vs httpd on the SMP system."""
        configs = [
            (ServerSpec.nio(2), SMP_GIGABIT, "nio-2w"),
            (ServerSpec.staged(2), SMP_GIGABIT, "staged-2w"),
            (ServerSpec.amped(4), SMP_GIGABIT, "amped-4h"),
            (ServerSpec.httpd(4096), SMP_GIGABIT, "httpd-4096t"),
        ]
        return [
            FigureData(
                "extA3", "Staged/AMPED extension on SMP",
                "clients", "replies/s",
                self._series(configs, _throughput),
                notes="the paper's future-work pipeline, plus Flash AMPED",
            )
        ]

    def extension_overload_control(self) -> List[FigureData]:
        """Overload-control extension: deliberate shedding vs the paper's
        accidental kind.

        The uncontrolled httpd baseline reproduces figure 3's error
        shape: resets grow with the client count (idle reaping) and
        client timeouts explode past saturation.  A token-bucket
        admission policy capped just under the saturated establishment
        rate (~510 conn/s on UP-1G) sheds the excess at SYN time —
        trading mid-session resets for cheap connect-phase failures —
        while keeping goodput within a few percent of the uncontrolled
        peak.  A CoDel-on-the-accept-queue variant (with LIFO ordering)
        sheds on standing queue *delay* instead of rate.
        """
        from ..overload import (
            LIFO,
            CoDelShedder,
            OverloadControl,
            TokenBucket,
        )

        baseline = ServerSpec.httpd(4096)
        bucket = ServerSpec(
            "httpd", 4096,
            overload=OverloadControl(
                admission=TokenBucket(rate=520.0, burst=64.0)
            ),
        )
        codel = ServerSpec(
            "httpd", 4096,
            overload=OverloadControl(
                admission=CoDelShedder(target=0.05, interval=0.5),
                discipline=LIFO,
            ),
        )
        configs = [
            (baseline, UP_GIGABIT, "httpd"),
            (bucket, UP_GIGABIT, "httpd+token-bucket"),
            (codel, UP_GIGABIT, "httpd+codel+lifo"),
        ]
        return [
            FigureData(
                "extOCa", "Connection reset errors w/ admission control",
                "clients", "errors/s",
                self._series(configs, _reset_rate),
                notes="shedding at SYN time shrinks the idle keep-alive "
                      "population that reaping resets",
            ),
            FigureData(
                "extOCb", "Client timeout errors w/ admission control",
                "clients", "errors/s",
                self._series(configs, _timeout_rate),
                notes="the flip side: shed SYNs burn retransmission time "
                      "and surface as connect-phase timeouts",
            ),
            FigureData(
                "extOCc", "Goodput w/ admission control",
                "clients", "replies/s",
                self._series(configs, _throughput),
                notes="the token bucket caps establishment just under "
                      "saturation, so goodput stays near the peak",
            ),
        ]

    def extension_latency_breakdown(self) -> List[FigureData]:
        """Observability extension: queue-wait vs service-time share.

        Makes figure 2's explanation directly observable from span data
        on the bandwidth-bounded UP-100M testbed.  *Queue wait* counts
        every second a client spent making no progress — SYN
        retransmission, the kernel backlog, requests sitting unserved —
        **including the failed connections httperf excludes** from
        response-time statistics.  *Service* counts CPU service plus
        response streaming.  nio streams to every client concurrently,
        so its clients' time is almost entirely service; thread-limited
        httpd pools serialize clients behind busy workers, so at peak
        load the (hidden) queue wait dominates.
        """
        configs = [
            (ServerSpec("nio", 1, observe=True), UP_FAST_ETHERNET, "nio-1w"),
            (
                ServerSpec("httpd", 896, observe=True),
                UP_FAST_ETHERNET,
                "httpd-896t",
            ),
            (
                ServerSpec("httpd", 4096, observe=True),
                UP_FAST_ETHERNET,
                "httpd-4096t",
            ),
        ]
        return [
            FigureData(
                "extLBa", "Queue-wait share of client time (UP, 100 Mbit)",
                "clients", "% of time",
                self._series(configs, _queue_share_pct),
                notes="includes failed connections httperf excludes from "
                      "response-time stats",
            ),
            FigureData(
                "extLBb", "Service-time share of client time (UP, 100 Mbit)",
                "clients", "% of time",
                self._series(configs, _service_share_pct),
                notes="nio streams everyone concurrently, so its time is "
                      "honest service time",
            ),
        ]

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
        from ..cluster import (
            CacheSpec,
            FlashCrowdSpec,
            straggler_cluster,
            sweep_cluster,
        )

        clients = []
        for c in self.profile.clients:
            scaled = max(30, c // 4)
            if scaled not in clients:
                clients.append(scaled)

        def cluster_sweep(cluster, flash=None):
            key = (cluster.label, "flash" if flash else "steady")
            cached = self._cache.get(key)
            if cached is not None:
                return cached
            if self.verbose:
                print(
                    f"[figures] sweeping cluster {cluster.label} "
                    f"({len(clients)} points)...",
                    file=sys.stderr,
                )
            result = sweep_cluster(
                cluster,
                clients,
                duration=self.profile.duration,
                warmup=self.profile.warmup,
                seed=self.seed,
                flash=flash,
                jobs=self.jobs,
                store=self.store,
                point_hook=self._progress if self.verbose else None,
            )
            self._cache[key] = result
            return result

        speed, straggler = 0.12, 0.3
        cache = CacheSpec(capacity_bytes=64 * 1024 * 1024)
        policies = [
            ("round_robin", "rr", None),
            ("least_connections", "lc", None),
            ("consistent_hash", "chash", None),
            ("least_connections", "lc+cache", cache),
        ]
        sweeps = {
            label: cluster_sweep(
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
            label: cluster_sweep(
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
    def all_figures(self) -> Dict[str, List[FigureData]]:
        """Every paper figure (1-10) in order."""
        return self.run_figures(PAPER_FIGURES)

    def run_figures(
        self, names: Optional[Tuple[str, ...]] = None
    ) -> Dict[str, List[FigureData]]:
        """Regenerate the named figure methods (default: all paper figures).

        Names are generator-method names (``"figure_3"``,
        ``"extension_overload_control"``, ...).  Sweeps are shared through
        the runner cache, and each sweep's points fan out over
        ``self.jobs`` workers.
        """
        out: Dict[str, List[FigureData]] = {}
        for name in names if names is not None else PAPER_FIGURES:
            method = getattr(self, name, None)
            if method is None:
                raise ValueError(f"unknown figure generator {name!r}")
            out[name] = method()
        return out


#: Names of the paper-figure generator methods, for discovery/tests.
PAPER_FIGURES = tuple(f"figure_{i}" for i in range(1, 11))
