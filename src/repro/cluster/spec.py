"""Cluster-level specifications: replicas, balancer, cache, client classes.

A :class:`ClusterSpec` describes a production-style front end around the
paper's single SUT: N replica servers (any of the four architectures,
heterogeneous machine mixes allowed) behind a pluggable load balancer,
an optional LRU cache tier in front of them, and one or more WAN client
classes with per-class bandwidth/RTT/loss.

Everything here is a frozen dataclass so a cluster sweep point can be
content-addressed by the :class:`~repro.core.store.RunStore` exactly like
a single-SUT :class:`~repro.core.runner.PointSpec` — same canonical-JSON
digest machinery, no special-casing.

Determinism by construction
---------------------------
Replicas are identified by a stable string ``rid`` and *normalised into
rid order* at construction.  Two specs that list the same replicas in a
different order are therefore equal, canonicalise identically (same
store key), and — because every per-replica RNG stream is derived from
``(seed, rid)``, never from list position — produce identical
per-replica rows.  ``tests/test_cluster_experiment.py`` pins this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.params import ServerSpec, WorkloadSpec
from ..obs.slo import SloSpec
from ..osmodel.machine import MachineSpec

__all__ = [
    "ReplicaSpec",
    "BalancerSpec",
    "CacheSpec",
    "ClientClassSpec",
    "ClusterSpec",
    "FlashCrowdSpec",
    "RollingRestartSpec",
    "ClusterPointSpec",
]

#: Balancer policies a :class:`BalancerSpec` may name.
BALANCER_POLICIES = ("round_robin", "least_connections", "consistent_hash")

#: Client-class adversary behaviours ("" = legitimate traffic).
ADVERSARIES = ("", "slowloris")


@dataclass(frozen=True)
class ReplicaSpec:
    """One replica SUT: a stable identity plus server and machine."""

    #: Stable replica identity.  Streams, stats keys and balancer order
    #: all key off this string, never off list position.
    rid: str
    server: ServerSpec
    machine: MachineSpec = MachineSpec(cpus=1)

    def __post_init__(self) -> None:
        if not self.rid:
            raise ValueError("replica rid must be a non-empty string")

    @property
    def label(self) -> str:
        return f"{self.rid}:{self.server.label}"


@dataclass(frozen=True)
class BalancerSpec:
    """Which routing policy the front end runs, and its knobs."""

    policy: str = "round_robin"
    #: consistent_hash: virtual nodes per replica on the ring.
    vnodes: int = 64
    #: consistent_hash: probability a routing key is drawn from the small
    #: hot set instead of the full key space (hot-key skew).
    hot_fraction: float = 0.0
    #: consistent_hash: size of the hot key set.
    hot_keys: int = 8

    def __post_init__(self) -> None:
        if self.policy not in BALANCER_POLICIES:
            raise ValueError(
                f"unknown balancer policy {self.policy!r}; "
                f"expected one of {BALANCER_POLICIES}"
            )
        if self.vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        if self.hot_keys < 1:
            raise ValueError("hot_keys must be >= 1")

    @property
    def tag(self) -> str:
        return {"round_robin": "rr", "least_connections": "lc",
                "consistent_hash": "chash"}[self.policy]


@dataclass(frozen=True)
class CacheSpec:
    """Front cache tier: an LRU keyed on the SURGE file population."""

    capacity_bytes: int
    #: Fixed per-hit service delay at the cache box (no CPU station:
    #: the cache tier is modelled as never CPU-bound).
    hit_service_s: float = 0.0005

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("cache capacity must be positive")
        if self.hit_service_s < 0:
            raise ValueError("hit_service_s must be >= 0")


@dataclass(frozen=True)
class ClientClassSpec:
    """One WAN client class: share of the population plus link conditions."""

    name: str
    #: Relative share of the client population (largest-remainder split).
    weight: float = 1.0
    #: Access bandwidth in bits/s (shared by the class, like the paper's
    #: client-side Ethernet).
    bandwidth_bps: float = 1e9
    #: Round-trip time of the class's WAN path.
    rtt_s: float = 0.0004
    #: Per-transmission loss probability; each loss costs one retransmit
    #: delay plus a re-serialisation of the bytes.
    loss: float = 0.0
    #: "" = legitimate SURGE sessions; "slowloris" = connect-and-hold
    #: adversaries that never send a request.
    adversary: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("client class needs a name")
        if self.weight <= 0:
            raise ValueError("class weight must be positive")
        if self.bandwidth_bps <= 0:
            raise ValueError("class bandwidth must be positive")
        if self.rtt_s < 0:
            raise ValueError("class rtt must be >= 0")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("class loss must be in [0, 1)")
        if self.adversary not in ADVERSARIES:
            raise ValueError(
                f"unknown adversary {self.adversary!r}; "
                f"expected one of {ADVERSARIES}"
            )


@dataclass(frozen=True)
class ClusterSpec:
    """The whole front end: replicas + balancer + cache + client classes."""

    replicas: Tuple[ReplicaSpec, ...]
    balancer: BalancerSpec = BalancerSpec()
    cache: Optional[CacheSpec] = None
    classes: Tuple[ClientClassSpec, ...] = (ClientClassSpec("wan"),)
    #: Mount the full :class:`~repro.cluster.telemetry.ClusterTelemetry`
    #: (shared span recorder + causal tracer + time series + SLO
    #: monitors) across all replica listeners, so observability covers
    #: client -> balancer -> cache -> replica end to end.  Pay-for-use:
    #: RunMetrics stay byte-identical either way.
    observe: bool = False
    #: Declarative SLOs evaluated in sim time (needs ``observe=True``).
    slos: Tuple[SloSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.replicas:
            raise ValueError("cluster needs at least one replica")
        if self.slos:
            slo_names = [s.name for s in self.slos]
            if len(set(slo_names)) != len(slo_names):
                raise ValueError(f"duplicate SLO names: {sorted(slo_names)}")
        rids = [r.rid for r in self.replicas]
        if len(set(rids)) != len(rids):
            raise ValueError(f"duplicate replica rids: {sorted(rids)}")
        # Normalise to rid order: replica order in user code must not
        # matter — not for equality, not for store keys, not for rows.
        ordered = tuple(sorted(self.replicas, key=lambda r: r.rid))
        object.__setattr__(self, "replicas", ordered)
        names = [c.name for c in self.classes]
        if not names:
            raise ValueError("cluster needs at least one client class")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate client class names: {sorted(names)}")
        if all(c.adversary for c in self.classes):
            raise ValueError("need at least one legitimate client class")

    @property
    def label(self) -> str:
        kinds = [r.server.label for r in self.replicas]
        if len(set(kinds)) == 1:
            body = f"{len(kinds)}x{kinds[0]}"
        else:
            body = "+".join(kinds)
        out = f"{body}|{self.balancer.tag}"
        if self.cache is not None:
            out += f"+cache{self.cache.capacity_bytes // (1024 * 1024)}M"
        return out


@dataclass(frozen=True)
class FlashCrowdSpec:
    """A flash crowd: a step of extra clients whose arrivals decay away.

    ``surge_clients`` extra clients join at ``at`` (absolute simulation
    time); their start offsets follow the quantiles of an exponential
    with mean ``decay`` (deterministic inverse-CDF spacing, no RNG), so
    the arrival rate steps up and decays — the classic flash-crowd shape.
    Each surge client runs ``sessions_per_client`` sessions and leaves.
    """

    at: float
    surge_clients: int
    decay: float = 2.0
    sessions_per_client: int = 2

    def __post_init__(self) -> None:
        if self.at < 0 or self.decay <= 0:
            raise ValueError("need at >= 0 and decay > 0")
        if self.surge_clients < 1 or self.sessions_per_client < 1:
            raise ValueError("need surge_clients and sessions_per_client >= 1")


@dataclass(frozen=True)
class RollingRestartSpec:
    """Restart one replica under load: drain -> down -> warm back up."""

    rid: str
    #: Stop routing *new* connections to the replica (existing sessions
    #: keep being served).
    drain_at: float
    #: Kill the replica: every connection still open on it is reset.
    down_at: float
    #: Bring it back as WARMING; routed traffic ramps linearly over
    #: ``warm_s`` (deterministic error-diffusion admission, no RNG).
    up_at: float
    warm_s: float = 4.0

    def __post_init__(self) -> None:
        if not self.rid:
            raise ValueError("restart needs a replica rid")
        if not 0 <= self.drain_at < self.down_at < self.up_at:
            raise ValueError("need 0 <= drain_at < down_at < up_at")
        if self.warm_s <= 0:
            raise ValueError("warm_s must be positive")


@dataclass(frozen=True)
class ClusterPointSpec:
    """One cluster sweep point, picklable and content-addressable.

    Duck-types the :class:`~repro.core.runner.PointSpec` protocol —
    ``experiment()`` plus ``provenance()`` — so cluster points flow
    through :func:`~repro.core.runner.run_points` (process pools, the
    RunStore, point hooks) unchanged.
    """

    cluster: ClusterSpec
    workload: WorkloadSpec
    seed: int = 42
    flash: Optional[FlashCrowdSpec] = None
    restart: Optional[RollingRestartSpec] = None

    def __post_init__(self) -> None:
        if self.restart is not None:
            rids = {r.rid for r in self.cluster.replicas}
            if self.restart.rid not in rids:
                raise ValueError(
                    f"restart rid {self.restart.rid!r} not in {sorted(rids)}"
                )

    def experiment(self):
        """The fully-specified cluster experiment for this point."""
        from .experiment import ClusterExperiment

        return ClusterExperiment(
            cluster=self.cluster,
            workload=self.workload,
            seed=self.seed,
            flash=self.flash,
            restart=self.restart,
        )

    def provenance(self) -> dict:
        """Human-readable identity stored next to this point's metrics."""
        scenario = "cluster"
        if self.flash is not None:
            scenario = "cluster-flash"
        elif self.restart is not None:
            scenario = "cluster-restart"
        if any(c.adversary for c in self.cluster.classes):
            scenario = "cluster-adversarial"
        return {
            "server": self.cluster.label,
            "scenario": scenario,
            "clients": self.workload.clients,
            "seed": self.seed,
        }
