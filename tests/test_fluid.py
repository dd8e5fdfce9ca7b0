"""Unit tests for the fluid client-population machinery.

The integration-level guarantees (byte-identity in the pinned regime,
statistical agreement and one pinned digest in the aggregate regime)
live in ``test_fluid_equivalence.py``; this file covers the parts in
isolation: the SYN ladder, ramp binning, batch metrics, vectorised gap
draws, the CPU fast-path completions, the flood-drop batch path, the
session free list, and the scale plumbing (CLI parsing, profile).
"""

import gc
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core.experiment import Experiment
from repro.core.params import ServerSpec, WorkloadSpec
from repro.core.scenarios import PROFILES, SCALE_CLIENT_RANGE
from repro.metrics.collectors import CLIENT_TIMEOUT, MetricsHub
from repro.osmodel import CPU
from repro.sim import Simulator
from repro.workload.fluid import (
    _BIN_S,
    _RAMP_CHUNK,
    FluidConfig,
    _attempt_offsets,
    _gap_bins,
    _ramp_bins,
)
from repro.workload.surge import SurgeConfig, SurgeWorkload


# -- the SYN ladder -----------------------------------------------------------

def test_attempt_offsets_follow_the_syn_ladder():
    # 10 s client timeout: SYN at 0 s, retransmits at +3 s and +9 s
    # (Linux-2.4 gaps 3, 6, 12), abandon at 10 s.
    assert _attempt_offsets(10.0) == [0.0, 3.0, 9.0]
    assert _attempt_offsets(25.0) == [0.0, 3.0, 9.0, 21.0]
    assert _attempt_offsets(2.0) == [0.0]


# -- ramp seeding -------------------------------------------------------------

def _one_shot_bins(n, ramp, bin_s):
    """The ramp bins from one pass over all ``n`` offsets."""
    offsets = ramp * (2.0 * np.arange(n) + 1.0) / (2.0 * n)
    idx = (offsets // bin_s).astype(np.int64) + 1
    bins, counts = np.unique(idx, return_counts=True)
    return list(zip(bins.tolist(), counts.tolist()))


@pytest.mark.parametrize(
    "n", [1, _RAMP_CHUNK - 1, _RAMP_CHUNK, _RAMP_CHUNK + 1, 10**6]
)
@pytest.mark.parametrize(
    "ramp,bin_s", [(2.0, 0.5), (8.0, 0.5), (3.3, 0.25), (0.7, 1.0)]
)
def test_chunked_ramp_bins_match_one_shot(n, ramp, bin_s):
    # At n = 10**6 most bins span two or more chunks and are merged.
    assert _ramp_bins(n, ramp, bin_s) == _one_shot_bins(n, ramp, bin_s)


# -- abandoned batches --------------------------------------------------------

def _surge(**config):
    from repro.http.files import FilePopulation

    return SurgeWorkload(
        FilePopulation.shared(3, n_files=50), SurgeConfig(**config)
    )


def _one_shot_gap_bins(workload, rng, count, t):
    """The re-arrival bins from one draw of all ``count`` gaps."""
    gaps = workload.sample_gaps(rng, count)
    idx = ((t + gaps) // _BIN_S).astype(np.int64) + 1
    bins, counts = np.unique(idx, return_counts=True)
    return list(zip(bins.tolist(), counts.tolist()))


@pytest.mark.parametrize(
    "count", [1, _RAMP_CHUNK - 1, _RAMP_CHUNK, _RAMP_CHUNK + 1, 160_000]
)
@pytest.mark.parametrize("think", [True, False], ids=["think", "no-think"])
def test_chunked_gap_bins_match_one_shot(count, think):
    workload = _surge(inter_session_think=think)
    chunked, one_shot = np.random.default_rng(42), np.random.default_rng(42)
    assert _gap_bins(workload, chunked, count, 10.5) == _one_shot_gap_bins(
        workload, one_shot, count, 10.5
    )
    # Both leave the stream at the same position.
    assert chunked.bit_generator.state == one_shot.bit_generator.state


def test_abandoned_batch_transient_is_small():
    # million-fluid abandons batches of 162k-167k sessions at seed 42.
    workload = _surge()
    rng = np.random.default_rng(42)
    gc.collect()
    tracemalloc.start()
    try:
        _gap_bins(workload, rng, 160_000, 10.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_500_000


# -- config validation -------------------------------------------------------

def test_fluid_config_rejects_bad_inputs():
    with pytest.raises(ValueError):
        FluidConfig(budget=0)


# -- batch metrics and vectorised draws --------------------------------------

def test_record_errors_batches_and_respects_the_window():
    sim = Simulator()
    hub = MetricsHub(sim, warmup=1.0, duration=2.0)
    hub.record_errors(CLIENT_TIMEOUT, 5)  # t=0: before the window
    assert hub.errors.get(CLIENT_TIMEOUT, 0) == 0
    sim.call_later(1.5, hub.record_errors, CLIENT_TIMEOUT, 7)
    sim.call_later(1.5, hub.record_errors, CLIENT_TIMEOUT, 0)
    sim.run()
    assert hub.errors[CLIENT_TIMEOUT] == 7
    assert hub.error_series.rates()[0] == 7.0


def test_sample_gaps_matches_the_think_law():
    from repro.http.files import FilePopulation

    files = FilePopulation.shared(3, n_files=50)
    workload = SurgeWorkload(files)
    rng = np.random.default_rng(9)
    gaps = workload.sample_gaps(rng, 1000)
    cfg = workload.config
    assert gaps.shape == (1000,)
    assert float(gaps.min()) >= cfg.think_k
    assert float(gaps.max()) <= cfg.think_max
    # Same stream position -> same draws (determinism).
    again = workload.sample_gaps(np.random.default_rng(9), 1000)
    assert np.array_equal(gaps, again)

    off = SurgeWorkload(files, SurgeConfig(inter_session_think=False))
    assert not off.sample_gaps(rng, 4).any()


# -- CPU charge --------------------------------------------------------------

def test_cpu_charge_burns_capacity_without_a_callback():
    sim = Simulator()
    cpu = CPU(sim, nproc=1)
    cpu.charge(0.5)
    done = []
    cpu.execute(0.5).callbacks.append(lambda _ev: done.append(1))
    sim.run()
    # Two equal bursts share the processor: both finish at 1.0.
    assert done == [1]
    assert sim.now == pytest.approx(1.0)
    cpu._sync()
    assert cpu.busy_time == pytest.approx(1.0)


# -- the flood-drop boundary -------------------------------------------------

def test_drop_flood_batches_counters_and_reject_cost():
    from repro.net.tcp import ListenSocket
    from repro.osmodel.machine import Machine, MachineSpec

    sim = Simulator()
    spec = MachineSpec(cpus=1)
    machine = Machine(sim, spec)
    listener = ListenSocket(sim, machine, backlog=4)
    assert not listener.would_drop_syn  # empty backlog, nothing waiting
    listener.drop_flood(1000)
    sim.run()
    assert listener.syns_received == 1000
    assert listener.syns_dropped == 1000
    machine.cpu._sync()
    assert machine.cpu.busy_time == pytest.approx(
        1000 * spec.base_costs().reject
    )


# -- aggregate regime mechanics ---------------------------------------------

def _aggregate_run(clients=900, budget=64, seed=11):
    workload = WorkloadSpec(
        clients=clients, duration=6.0, warmup=6.0,
        fluid=FluidConfig(budget=budget),
    )
    experiment = Experiment(ServerSpec.nio(1), workload, seed=seed)
    return experiment.run()


def test_aggregate_pool_is_a_bounded_free_list():
    metrics = _aggregate_run()
    stats = metrics.server_stats
    assert stats["fluid.aggregate"] == 1
    assert stats["fluid.budget"] == 64
    # More sessions ran than drivers ever existed: the pool recycles.
    assert stats["fluid.sessions_materialized"] > stats["fluid.pool_peak"]
    assert stats["fluid.pool_peak"] <= 64
    assert metrics.throughput_rps > 0


def test_aggregate_overflow_abandons_at_the_client_timeout():
    metrics = _aggregate_run(clients=5000, budget=16)
    stats = metrics.server_stats
    # 5000 sessions cannot fit 16 slots: the overflow must time out and
    # be visible as client-timeout errors, not vanish.
    assert stats["fluid.sessions_abandoned"] > 0
    assert metrics.client_timeout_rate > 0


def test_fluid_stats_surface_in_server_stats():
    metrics = _aggregate_run(clients=300, budget=32)
    for key in (
        "fluid.aggregate", "fluid.classes", "fluid.budget",
        "fluid.sessions_materialized", "fluid.sessions_abandoned",
        "fluid.flood_syn_drops", "fluid.pool_peak",
    ):
        assert key in metrics.server_stats, key


# -- scale plumbing ----------------------------------------------------------

def test_scale_profile_covers_the_scale_range():
    profile = PROFILES["scale"]
    assert profile.clients == SCALE_CLIENT_RANGE
    assert profile.clients[0] == 100_000
    assert profile.clients[-1] == 1_000_000
    # The window must outlast the 10 s abandon ladder.
    assert profile.duration >= 10.0


def test_parse_clients_accepts_k_and_m_suffixes():
    import argparse

    from repro.__main__ import parse_clients

    assert parse_clients("600") == 600
    assert parse_clients("50k") == 50_000
    assert parse_clients("250K") == 250_000
    assert parse_clients("1M") == 1_000_000
    assert parse_clients("1.5m") == 1_500_000
    for bad in ("", "x", "1Q", "-5", "0"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_clients(bad)


def test_measure_scale_emits_the_artifact_schema(tmp_path):
    from repro.core.perf import measure_scale, write_json

    report = measure_scale(
        client_counts=[2000], duration=2.0, warmup=1.0, seed=3,
        budget=64, label="unit",
    )
    assert report["schema"] == "repro-bench-scale/2"
    (point,) = report["points"]
    assert point["clients"] == 2000
    assert point["wall_seconds"] > 0
    assert point["peak_rss_bytes"] > 0
    assert point["live_objects"] > 0
    assert len(point["gc_collections"]) == 3  # one count per generation
    assert min(point["gc_collections"]) >= 0
    assert point["fluid"]["fluid.aggregate"] == 1
    path = write_json(report, str(tmp_path / "BENCH_scale.json"))
    assert json.loads(Path(path).read_text())["points"][0]["clients"] == 2000
