"""Unit tests for the sampling distributions."""

import math

import numpy as np
import pytest

from repro.workload import BoundedPareto, Geometric


def rng():
    return np.random.default_rng(99)


def empirical_mean(dist, n=50_000):
    r = rng()
    return float(np.mean([dist.sample(r) for _ in range(n)]))


def test_bounded_pareto_samples_within_bounds():
    d = BoundedPareto(k=1.0, alpha=1.5, upper=50.0)
    r = rng()
    samples = [d.sample(r) for _ in range(10_000)]
    assert min(samples) >= 1.0
    assert max(samples) <= 50.0


def test_bounded_pareto_mean_analytic_vs_empirical():
    d = BoundedPareto(k=0.45, alpha=1.5, upper=100.0)
    assert empirical_mean(d, 200_000) == pytest.approx(d.mean(), rel=0.05)


def test_unbounded_pareto_mean():
    assert BoundedPareto(k=2.0, alpha=2.0).mean() == pytest.approx(4.0)
    assert math.isinf(BoundedPareto(k=1.0, alpha=0.9).mean())


def test_pareto_alpha_one_mean():
    d = BoundedPareto(k=1.0, alpha=1.0, upper=math.e)
    # body integral = k*ln(u/k) = 1; clamp mass = e * (1/e) = 1.
    assert d.mean() == pytest.approx(2.0)


def test_pareto_tail_probability():
    d = BoundedPareto(k=0.45, alpha=1.5)
    assert d.tail_probability(0.1) == 1.0
    assert d.tail_probability(15.0) == pytest.approx((0.45 / 15) ** 1.5)


def test_pareto_tail_probability_drives_reset_calibration():
    # The calibrated think-time tail must make 15 s+ thinks rare but real.
    d = BoundedPareto(k=0.45, alpha=1.5, upper=100.0)
    p = d.tail_probability(15.0)
    assert 0.001 < p < 0.02


def test_pareto_validation():
    with pytest.raises(ValueError):
        BoundedPareto(k=0.0, alpha=1.0)
    with pytest.raises(ValueError):
        BoundedPareto(k=2.0, alpha=1.0, upper=1.0)


def test_geometric_mean_and_support():
    d = Geometric(4.0)
    r = rng()
    samples = [d.sample(r) for _ in range(20_000)]
    assert min(samples) >= 1
    assert float(np.mean(samples)) == pytest.approx(4.0, rel=0.05)


def test_geometric_validation():
    with pytest.raises(ValueError):
        Geometric(0.5)
