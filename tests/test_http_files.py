"""Unit tests for the SURGE file population and HTTP message helpers."""

import numpy as np
import pytest

from repro.http import FilePopulation, Request
from repro.http.messages import (
    DEFAULT_REQUEST_WIRE_BYTES,
    DEFAULT_RESPONSE_HEAD_BYTES,
)


def make_population(**kwargs):
    rng = np.random.default_rng(123)
    return FilePopulation(rng, **kwargs)


def test_population_sizes_within_bounds():
    pop = make_population(n_files=500, min_bytes=100, max_bytes=10**6)
    assert len(pop) == 500
    assert pop.sizes.min() >= 100
    assert pop.sizes.max() <= 10**6


def test_population_has_heavy_tail():
    pop = make_population(n_files=5000)
    # The Pareto tail should produce some files far above the median.
    assert pop.sizes.max() > 10 * np.median(pop.sizes)


def test_mean_transfer_size_in_calibrated_range():
    pop = make_population(n_files=5000)
    mean = pop.mean_transfer_size()
    # DESIGN.md: mean transfer 10-20 KB keeps peak bandwidth < 40 MB/s.
    assert 8_000 < mean < 25_000


def test_sampling_prefers_popular_files():
    pop = make_population(n_files=200)
    rng = np.random.default_rng(7)
    ids = pop.sample_files(rng, 20_000)
    counts = np.bincount(ids, minlength=200)
    # Zipf-ish: the most-requested file should dominate the least-requested.
    assert counts.max() > 20 * max(1, counts[counts > 0].min())


def test_sample_file_matches_size_of():
    pop = make_population(n_files=50)
    rng = np.random.default_rng(1)
    for _ in range(20):
        file_id, size = pop.sample_file(rng)
        assert size == pop.size_of(file_id)


def test_sampling_deterministic_for_seed():
    pop = make_population(n_files=100)
    a = pop.sample_files(np.random.default_rng(5), 50)
    b = pop.sample_files(np.random.default_rng(5), 50)
    np.testing.assert_array_equal(a, b)


def test_population_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        FilePopulation(rng, n_files=0)
    with pytest.raises(ValueError):
        FilePopulation(rng, tail_fraction=1.5)


def test_total_bytes_consistent():
    pop = make_population(n_files=100)
    assert pop.total_bytes == int(pop.sizes.sum())


# ---------------------------------------------------------------------------
# messages
# ---------------------------------------------------------------------------

def test_request_defaults():
    req = Request(path="/file/1", response_bytes=5000)
    assert req.method == "GET"
    assert req.wire_bytes == DEFAULT_REQUEST_WIRE_BYTES
    assert req.total_response_wire_bytes == 5000 + DEFAULT_RESPONSE_HEAD_BYTES
