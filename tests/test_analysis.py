"""Tests for the analysis substrate — including simulator cross-validation
against analytic queueing results and operational laws."""

import math

import pytest

from repro.analysis import (
    LawCheck,
    ServiceEstimate,
    bandwidth_law,
    capacity_replies_per_s,
    erlang_c,
    littles_law,
    mmm_wait_time,
    mser_truncation,
    ps_response_time,
    saturation_clients,
    utilization,
    utilization_law,
    validate_run,
)
from repro.core import (
    PointSpec,
    ReplicationPolicy,
    ServerSpec,
    WorkloadSpec,
    run_replicated,
)
from repro.http.messages import DEFAULT_RESPONSE_HEAD_BYTES
from repro.net import NetworkSpec
from repro.osmodel import CostModel, MachineSpec

COSTS = CostModel()


# ---------------------------------------------------------------------------
# queueing formulas
# ---------------------------------------------------------------------------

def test_service_estimate_increases_with_bytes():
    small = ServiceEstimate.for_threadpool(COSTS, 1_000)
    large = ServiceEstimate.for_threadpool(COSTS, 1_000_000)
    assert large.cpu_seconds > small.cpu_seconds


def test_event_driven_estimate_adds_selector_overhead():
    tp = ServiceEstimate.for_threadpool(COSTS, 16_000)
    ed = ServiceEstimate.for_event_driven(COSTS, 16_000)
    assert ed.cpu_seconds > tp.cpu_seconds


def test_utilization_and_capacity():
    svc = ServiceEstimate(1e-3)  # 1 ms/request
    assert utilization(500.0, svc) == pytest.approx(0.5)
    assert capacity_replies_per_s(svc) == pytest.approx(1000.0)
    assert capacity_replies_per_s(svc, capacity=2.0) == pytest.approx(2000.0)


def test_ps_response_time_blows_up_at_saturation():
    svc = ServiceEstimate(1e-3)
    assert ps_response_time(0.0, svc) == pytest.approx(1e-3)
    assert ps_response_time(500.0, svc) == pytest.approx(2e-3)
    assert ps_response_time(999.0, svc) > 0.5e-1 * 1e-2
    assert math.isinf(ps_response_time(1000.0, svc))


def test_erlang_c_limits():
    # Single server: Erlang-C equals the utilisation.
    assert erlang_c(1, 0.5) == pytest.approx(0.5)
    # Overload: certain wait.
    assert erlang_c(4, 4.0) == 1.0
    assert erlang_c(4, 10.0) == 1.0
    # Big pool at low load: waiting is almost impossible.
    assert erlang_c(100, 10.0) < 1e-6


def test_erlang_c_validation():
    with pytest.raises(ValueError):
        erlang_c(0, 1.0)
    with pytest.raises(ValueError):
        erlang_c(4, -1.0)


def test_mmm_wait_time_matches_mm1_closed_form():
    lam, mu = 0.8, 1.0
    # M/M/1: Wq = rho / (mu - lam).
    assert mmm_wait_time(lam, mu, 1) == pytest.approx(0.8 / 0.2)
    assert math.isinf(mmm_wait_time(2.0, 1.0, 1))


def test_saturation_clients():
    svc = ServiceEstimate(0.5e-3)  # capacity 2000 replies/s
    assert saturation_clients(svc, 1.0, 1.0) == pytest.approx(2000.0)
    with pytest.raises(ValueError):
        saturation_clients(svc, 1.0, 0.0)


# ---------------------------------------------------------------------------
# simulator vs analytic cross-validation
# ---------------------------------------------------------------------------

def nio_point(clients, seed=42, cpu_speed=0.05):
    return PointSpec(
        server=ServerSpec.nio(1),
        workload=WorkloadSpec(
            clients=clients, duration=12.0, warmup=16.0, n_files=200
        ),
        machine=MachineSpec(cpus=1, cpu_speed=cpu_speed),
        network=NetworkSpec.gigabit(),
        seed=seed,
    )


def run_nio(clients, seed=42, cpu_speed=0.05):
    return nio_point(clients, seed, cpu_speed).experiment().run()


def test_simulated_capacity_matches_analytic_prediction():
    """Figure-1 plateau lands near the analytic saturation throughput."""
    cpu_speed = 0.05
    m = run_nio(clients=400, cpu_speed=cpu_speed)  # deep overload
    costs = CostModel().scaled(1.0 / cpu_speed).scaled(1.05)  # + JVM
    svc = ServiceEstimate.for_event_driven(costs, 16_000)
    predicted = capacity_replies_per_s(svc)
    assert m.throughput_rps == pytest.approx(predicted, rel=0.2)


def test_utilization_law_holds_on_simulated_run():
    cpu_speed = 0.05
    m = run_nio(clients=60, cpu_speed=cpu_speed)  # moderate load
    costs = CostModel().scaled(1.0 / cpu_speed).scaled(1.05)
    svc = ServiceEstimate.for_event_driven(costs, 16_000)
    check = utilization_law(m, svc, capacity=1.0)
    assert check.holds(tolerance=0.30), str(check)


def test_bandwidth_law_holds_on_simulated_run():
    m = run_nio(clients=60)
    # Mean transfer from the same seeded population the run used.
    from repro.http import FilePopulation
    from repro.sim import RandomStreams

    pop = FilePopulation(RandomStreams(42).stream("files"), n_files=200)
    mean_transfer = pop.mean_transfer_size() + DEFAULT_RESPONSE_HEAD_BYTES
    check = bandwidth_law(m, mean_transfer)
    assert check.holds(tolerance=0.25), str(check)


def test_littles_law_bound_on_simulated_run():
    m = run_nio(clients=60)
    check = littles_law(m)
    # In-flight requests never exceed the client population.
    assert check.observed <= check.predicted


def test_validate_run_bundles_checks():
    m = run_nio(clients=60)
    svc = ServiceEstimate(1e-3)
    checks = validate_run(m, svc, 1.0, 16_000)
    assert [c.name for c in checks] == [
        "utilization-law", "bandwidth-law", "littles-law-bound",
    ]


# ---------------------------------------------------------------------------
# replication statistics
# ---------------------------------------------------------------------------

def test_replicate_across_seeds_tightens_with_more_seeds():
    policy = ReplicationPolicy(min_replicates=4, max_replicates=4)
    (point,) = run_replicated([nio_point(40, cpu_speed=0.2)], policy=policy)
    assert point.n == 4
    # Throughput across seeds is tight (same offered load).
    assert point.rel_halfwidth() < 0.25


def test_law_check_ratio_edge_cases():
    assert LawCheck("z", 0.0, 0.0).ratio == 0.0
    assert math.isinf(LawCheck("z", 0.0, 1.0).ratio)
    assert LawCheck("z", 2.0, 2.2).holds(tolerance=0.15)
    assert not LawCheck("z", 2.0, 3.0).holds(tolerance=0.15)


# ---------------------------------------------------------------------------
# MSER warmup detection
# ---------------------------------------------------------------------------

def test_mser_detects_transient():
    series = [100.0, 60.0, 30.0, 20.0] + [10.0] * 30
    d = mser_truncation(series)
    assert 2 <= d <= 6


def test_mser_steady_series_keeps_everything():
    assert mser_truncation([5.0] * 40) == 0


def test_mser_short_series():
    assert mser_truncation([1.0, 2.0]) == 0


def test_mser_never_truncates_more_than_half():
    series = list(range(100, 0, -1))
    assert mser_truncation(series) <= 50
