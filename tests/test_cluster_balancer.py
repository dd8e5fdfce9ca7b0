"""Unit tests for the load balancers (repro.cluster.balancer).

The contracts under test: routing depends only on rids (never on list
position), a pick never returns a draining/down replica, warm-up
admission is deterministic error diffusion (no RNG anywhere in routing),
and ``picks_after_drain`` counts drain-window picks only — it stays
assertable at zero after the replica returns to service.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    DOWN,
    DRAINING,
    UP,
    WARMING,
    BalancerSpec,
    ConsistentHashBalancer,
    LeastConnectionsBalancer,
    LoadBalancer,
    RoundRobinBalancer,
    make_balancer,
)
from repro.sim import RandomStreams


class Stub:
    """The minimal replica surface a balancer needs: a stable rid."""

    def __init__(self, rid):
        self.rid = rid

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Stub({self.rid})"


def stubs(*rids):
    return [Stub(rid) for rid in rids]


class FailingRng:
    """An RNG that fails the test if any routing code touches it."""

    def random(self):
        raise AssertionError("key-less policy consumed randomness")

    def integers(self, *_a, **_k):
        raise AssertionError("key-less policy consumed randomness")


class Clock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


# -- round robin --------------------------------------------------------------

def test_round_robin_cycles_in_rid_order():
    lb = RoundRobinBalancer(stubs("r0", "r1", "r2"))
    picked = [lb.pick().rid for _ in range(6)]
    assert picked == ["r0", "r1", "r2", "r0", "r1", "r2"]


def test_round_robin_skips_unavailable():
    lb = RoundRobinBalancer(stubs("r0", "r1", "r2"))
    lb.set_state("r1", DRAINING)
    picked = [lb.pick().rid for _ in range(4)]
    assert picked == ["r0", "r2", "r0", "r2"]
    assert lb.routed_unavailable == 0
    assert lb.picks_by_rid["r1"] == 0


def test_pick_returns_none_when_nothing_routable():
    lb = RoundRobinBalancer(stubs("r0", "r1"))
    lb.set_state("r0", DOWN)
    lb.set_state("r1", DRAINING)
    assert lb.pick() is None
    assert lb.no_replica == 1


# -- least connections --------------------------------------------------------

def test_least_connections_routes_to_emptiest():
    lb = LeastConnectionsBalancer(stubs("r0", "r1", "r2"))
    first = lb.pick()   # all tied -> rid order -> r0
    second = lb.pick()  # r0 holds one -> r1
    assert (first.rid, second.rid) == ("r0", "r1")
    assert lb.pick().rid == "r2"
    # Releasing r1's connection makes it the emptiest again.
    lb.release(second)
    assert lb.pick().rid == "r1"


def test_least_connections_tie_breaks_by_rid():
    # Listed out of order: the balancer sees them normalised by the
    # ClusterSpec, but even with a shuffled list the contract is "first
    # of equals in iteration order" — the spec layer guarantees that
    # iteration order is rid order, so feed it rid order here.
    lb = LeastConnectionsBalancer(stubs("a", "b", "c"))
    assert lb.pick().rid == "a"


def test_least_connections_avoids_loaded_straggler():
    lb = LeastConnectionsBalancer(stubs("fast", "slow"))
    slow = next(r for r in lb.replicas if r.rid == "slow")
    for _ in range(5):
        lb.open_conns["slow"] += 1  # the straggler never drains
    assert all(lb.pick().rid == "fast" for _ in range(4))
    assert lb.open_conns["slow"] == 5 and slow.rid == "slow"


# -- consistent hashing -------------------------------------------------------

def test_consistent_hash_same_key_same_replica():
    lb = ConsistentHashBalancer(
        stubs("r0", "r1", "r2"), spec=BalancerSpec(policy="consistent_hash")
    )
    for key in (0, 7, 123456, 2**31):
        a = lb.pick(key)
        b = lb.pick(key)
        assert a.rid == b.rid


def test_consistent_hash_minimal_disruption_on_failure():
    spec = BalancerSpec(policy="consistent_hash")
    lb = ConsistentHashBalancer(stubs("r0", "r1", "r2"), spec=spec)
    keys = list(range(200))
    before = {k: lb.pick(k).rid for k in keys}
    lb.set_state("r1", DOWN)
    after = {k: lb.pick(k).rid for k in keys}
    # Keys that did not map to the failed replica keep their home.
    moved = [k for k in keys if before[k] != "r1" and after[k] != before[k]]
    assert moved == []
    # Keys that did map to it land somewhere that is up.
    assert all(after[k] in ("r0", "r2") for k in keys if before[k] == "r1")


def test_consistent_hash_ring_ignores_listing_order():
    spec = BalancerSpec(policy="consistent_hash")
    fwd = ConsistentHashBalancer(stubs("r0", "r1", "r2"), spec=spec)
    rev = ConsistentHashBalancer(stubs("r2", "r1", "r0"), spec=spec)
    assert all(fwd.pick(k).rid == rev.pick(k).rid for k in range(100))


def test_hot_key_skew_concentrates_keys():
    spec = BalancerSpec(
        policy="consistent_hash", hot_fraction=1.0, hot_keys=4
    )
    lb = ConsistentHashBalancer(stubs("r0", "r1"), spec=spec)
    rng = RandomStreams(7).spawn("route", 0)
    keys = {lb.make_key(rng) for _ in range(200)}
    assert keys <= set(range(4))
    # No skew: keys spread over the full 32-bit space.
    wide = ConsistentHashBalancer(
        stubs("r0", "r1"), spec=BalancerSpec(policy="consistent_hash")
    )
    assert len({wide.make_key(rng) for _ in range(50)}) > 40


def test_keyless_policies_never_touch_the_rng():
    for cls in (RoundRobinBalancer, LeastConnectionsBalancer):
        lb = cls(stubs("r0", "r1"))
        assert lb.make_key(FailingRng()) is None
        assert lb.pick(None).rid == "r0"


# -- warming ramp -------------------------------------------------------------

def test_warming_ramp_admits_a_growing_fraction():
    clock = Clock(0.0)
    lb = RoundRobinBalancer(stubs("r0", "r1"), clock=clock)
    lb.set_state("r1", DOWN)
    lb.set_state("r1", WARMING, warm_s=10.0)
    # Quarter-way through the ramp r1 should get roughly a quarter of
    # the picks it is offered (error diffusion: exactly floor/ceil).
    clock.t = 2.5
    admitted = sum(
        1 for _ in range(20) if lb.pick().rid == "r1"
    )
    assert 4 <= admitted <= 6
    # Past the ramp the replica self-promotes to UP on the next pick.
    clock.t = 11.0
    lb.pick()
    assert lb.state["r1"] == UP


def test_warming_requires_positive_duration():
    lb = RoundRobinBalancer(stubs("r0"))
    with pytest.raises(ValueError):
        lb.set_state("r0", WARMING, warm_s=0.0)


def test_state_machine_validates_inputs():
    lb = RoundRobinBalancer(stubs("r0"))
    with pytest.raises(KeyError):
        lb.set_state("nope", DOWN)
    with pytest.raises(ValueError):
        lb.set_state("r0", "sideways")
    with pytest.raises(ValueError):
        LoadBalancer([])


# -- drain windows ------------------------------------------------------------

def test_picks_after_drain_counts_window_only():
    clock = Clock(0.0)
    lb = RoundRobinBalancer(stubs("r0", "r1"), clock=clock)
    for _ in range(4):
        lb.pick()
    lb.set_state("r1", DRAINING)
    for _ in range(6):
        assert lb.pick().rid == "r0"
    assert lb.picks_after_drain("r1") == 0
    # Back up: post-recovery picks must not count against the window.
    lb.set_state("r1", UP)
    for _ in range(4):
        lb.pick()
    assert lb.picks_after_drain("r1") == 0
    assert lb.picks_by_rid["r1"] > 2


def test_drain_window_survives_down_transition():
    lb = RoundRobinBalancer(stubs("r0", "r1"))
    lb.set_state("r1", DRAINING)
    lb.set_state("r1", DOWN)  # keeps the original drain mark
    for _ in range(4):
        lb.pick()
    assert lb.picks_after_drain("r1") == 0
    stats = lb.stats()
    assert stats["lb.r1.picks_after_drain"] == 0
    assert stats["lb.r1.state"] == DOWN


def test_stats_shape():
    lb = make_balancer(
        BalancerSpec(policy="least_connections"), stubs("r0", "r1")
    )
    assert isinstance(lb, LeastConnectionsBalancer)
    lb.pick()
    stats = lb.stats()
    assert stats["lb.policy"] == "least_connections"
    assert stats["lb.picks"] == 1
    assert stats["lb.r0.picks"] == 1
    assert stats["lb.r0.open_peak"] == 1
    assert stats["lb.routed_unavailable"] == 0
