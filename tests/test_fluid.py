"""Unit tests for the fluid client-population machinery.

The integration-level guarantees (byte-identity in the pinned regime,
statistical agreement in the aggregate regime) live in
``test_fluid_equivalence.py``; this file covers the parts in isolation:
apportioning, the SYN ladder, batch metrics, vectorised gap draws, the
CPU fast-path completions the boundary rides, the flood-drop batch
path, the session free list, and the scale plumbing (CLI parsing,
profile, cluster bridge).
"""

import json

import numpy as np
import pytest

from repro.core.experiment import Experiment
from repro.core.params import ServerSpec, WorkloadSpec
from repro.core.scenarios import PROFILES, SCALE_CLIENT_RANGE
from repro.metrics.collectors import CLIENT_TIMEOUT, MetricsHub
from repro.osmodel import CPU
from repro.sim import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.fluid import (
    FluidClass,
    FluidConfig,
    _apportion,
    _attempt_offsets,
    _interleave,
)
from repro.workload.surge import SurgeConfig, SurgeWorkload


# -- class splitting ---------------------------------------------------------

def _classes(*pairs):
    return tuple(FluidClass(name, weight=w) for name, w in pairs)


def test_apportion_splits_by_weight_and_conserves_total():
    classes = _classes(("a", 1.0), ("b", 3.0))
    counts = _apportion(100, classes)
    assert counts == [25, 75]
    for n in (1, 7, 99, 1000):
        assert sum(_apportion(n, classes)) == n


def test_apportion_largest_remainder_is_deterministic():
    classes = _classes(("a", 1.0), ("b", 1.0), ("c", 1.0))
    # 10 = 3+3+3 with one remainder seat; equal remainders break by name.
    assert _apportion(10, classes) == [4, 3, 3]


def test_interleave_matches_apportion_on_every_prefix():
    classes = _classes(("a", 1.0), ("b", 2.0))
    assignment = _interleave(9, classes)
    assert len(assignment) == 9
    # Totals agree with the aggregate split...
    totals = [assignment.count(0), assignment.count(1)]
    assert totals == _apportion(9, classes)
    # ...and every prefix stays within one seat of the ideal share.
    for i in range(1, 10):
        got = assignment[:i].count(1)
        assert abs(got - 2.0 / 3.0 * i) < 1.0 + 1e-9


def test_attempt_offsets_follow_the_syn_ladder():
    # 10 s client timeout: SYN at 0 s, retransmits at +3 s and +9 s
    # (Linux-2.4 gaps 3, 6, 12), abandon at 10 s.
    assert _attempt_offsets(10.0) == [0.0, 3.0, 9.0]
    assert _attempt_offsets(25.0) == [0.0, 3.0, 9.0, 21.0]
    assert _attempt_offsets(2.0) == [0.0]


# -- config validation -------------------------------------------------------

def test_fluid_config_normalises_class_order():
    a = FluidConfig(classes=_classes(("dsl", 1.0), ("lan", 2.0)))
    b = FluidConfig(classes=_classes(("lan", 2.0), ("dsl", 1.0)))
    assert a == b
    assert [c.name for c in a.classes] == ["dsl", "lan"]


def test_fluid_config_rejects_bad_inputs():
    with pytest.raises(ValueError):
        FluidConfig(classes=())
    with pytest.raises(ValueError):
        FluidConfig(classes=_classes(("dup", 1.0), ("dup", 2.0)))
    with pytest.raises(ValueError):
        FluidConfig(budget=0)
    with pytest.raises(ValueError):
        FluidConfig(bin_s=0.0)
    with pytest.raises(ValueError):
        FluidClass("bad", weight=0.0)
    with pytest.raises(ValueError):
        FluidClass("bad", loss=1.0)


def test_fluid_class_wan_detection():
    assert not FluidClass("plain").wan
    assert FluidClass("dsl", bandwidth_bps=8e6).wan
    assert FluidClass("far", rtt_s=0.06).wan
    assert FluidClass("lossy", loss=0.02).wan


def test_cluster_class_bridges_to_fluid():
    from repro.cluster import ClientClassSpec

    spec = ClientClassSpec(
        "dsl", weight=2.0, bandwidth_bps=8e6, rtt_s=0.06, loss=0.02
    )
    cls = spec.to_fluid()
    assert isinstance(cls, FluidClass)
    assert (cls.name, cls.weight) == ("dsl", 2.0)
    assert cls.bandwidth_bps == 8e6
    assert cls.rtt_s == 0.06
    assert cls.loss == 0.02
    with pytest.raises(ValueError):
        ClientClassSpec("bad", adversary="slowloris").to_fluid()


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


# -- CPU fast-path completions ----------------------------------------------

def test_cpu_execute_call_completes_like_execute():
    sim = Simulator()
    cpu = CPU(sim, nproc=1)
    done = []
    cpu.execute_call(0.25, done.append, "a")
    sim.run()
    assert done == ["a"]
    assert sim.now == pytest.approx(0.25)


def test_cpu_execute_call_zero_cost_fires_this_instant():
    sim = Simulator()
    cpu = CPU(sim, nproc=1)
    done = []
    cpu.execute_call(0.0, done.append, "now")
    sim.run()
    assert done == ["now"]
    assert sim.now == 0.0


def test_cpu_charge_burns_capacity_without_a_callback():
    sim = Simulator()
    cpu = CPU(sim, nproc=1)
    cpu.charge(0.5)
    done = []
    cpu.execute_call(0.5, done.append, 1)
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
    machine = Machine(sim, MachineSpec(cpus=1))
    spec = MachineSpec(cpus=1)
    listener = ListenSocket(sim, machine, costs=spec.base_costs(), backlog=4)
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

def _aggregate_run(clients=900, budget=64, seed=11, **fluid_kwargs):
    workload = WorkloadSpec(
        clients=clients, duration=6.0, warmup=6.0,
        fluid=FluidConfig(budget=budget, **fluid_kwargs),
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
    assert json.loads(open(path).read())["points"][0]["clients"] == 2000


def test_fluid_uses_per_class_streams():
    """Aggregate sources draw from ``fluid[<name>]`` streams keyed off
    (seed, class name) — independent of construction order and of the
    discrete ``client[i]`` streams."""
    streams_a = RandomStreams(21)
    streams_b = RandomStreams(21)
    one = streams_a.stream("fluid[dsl]").random(4)
    two = streams_b.stream("fluid[dsl]").random(4)
    assert np.array_equal(one, two)
    other = RandomStreams(21).stream("fluid[lan]").random(4)
    assert not np.array_equal(one, other)
