"""Unit tests for the evaluation core: experiment, sweeps, figures, compare."""

import pytest

from repro.core import (
    Experiment,
    FigureRunner,
    MeasurementProfile,
    PROFILES,
    ServerSpec,
    SweepResult,
    UP_GIGABIT,
    WorkloadSpec,
    best_configuration,
    build_server,
    find_crossover,
    peak_throughput,
    plateau_throughput,
    relative_peak,
    scaling_factor,
    sweep_clients,
)
from repro.metrics import RunMetrics
from repro.net import ListenSocket
from repro.osmodel import Machine, MachineSpec
from repro.servers import (
    AmpedServer,
    EventDrivenServer,
    StagedServer,
    ThreadPoolServer,
)
from repro.sim import Simulator

TINY = MeasurementProfile("tiny", (10, 30), duration=8.0, warmup=4.0)


def fake_metrics(clients, rps, resp=0.01):
    return RunMetrics(
        clients=clients, duration=10.0, replies=int(rps * 10),
        throughput_rps=rps, response_time_mean=resp,
        response_time_p50=resp, response_time_p90=resp,
        response_time_p99=resp, ttfb_mean=resp / 2,
        connection_time_mean=0.0004, connection_time_p99=0.001,
        client_timeout_rate=0.0, connection_reset_rate=0.0, errors={},
        bandwidth_mbytes_per_s=rps * 0.015, cpu_utilization=0.5,
        sessions_completed=10, connections_established=10,
        reply_rate_cov=0.05,
    )


def fake_sweep(label, pairs):
    s = SweepResult(label=label, scenario="test")
    s.points = [fake_metrics(c, r) for c, r in pairs]
    return s


# ---------------------------------------------------------------------------
# Experiment / build_server
# ---------------------------------------------------------------------------

def test_build_server_dispatch():
    sim = Simulator()
    machine = Machine(sim, MachineSpec())
    listener = ListenSocket(sim, machine)
    assert isinstance(
        build_server(ServerSpec.nio(1), sim, machine, listener),
        EventDrivenServer,
    )
    assert isinstance(
        build_server(ServerSpec.httpd(8), sim, machine, listener),
        ThreadPoolServer,
    )
    assert isinstance(
        build_server(ServerSpec.staged(1), sim, machine, listener),
        StagedServer,
    )
    assert isinstance(
        build_server(ServerSpec.amped(1), sim, machine, listener),
        AmpedServer,
    )


def test_experiment_defaults_to_gigabit():
    exp = Experiment(
        server=ServerSpec.nio(1), workload=WorkloadSpec(clients=5)
    )
    assert exp.network.name == "1Gbps"


def test_experiment_describe():
    exp = Experiment(
        server=ServerSpec.httpd(896),
        workload=WorkloadSpec(clients=600),
    )
    text = exp.describe()
    assert "httpd-896t" in text
    assert "600 clients" in text


def test_experiment_run_produces_metrics():
    m = Experiment(
        server=ServerSpec.nio(1),
        workload=WorkloadSpec(clients=15, duration=8.0, warmup=4.0, n_files=50),
    ).run()
    assert m.clients == 15
    assert m.replies > 0
    assert 0.0 <= m.cpu_utilization <= 1.0
    assert "downlink_utilization" in m.server_stats


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_clients_collects_points():
    hook_calls = []
    sweep = sweep_clients(
        ServerSpec.nio(1),
        UP_GIGABIT,
        client_counts=(5, 15),
        duration=6.0,
        warmup=3.0,
        workload_overrides={"n_files": 50},
        point_hook=hook_calls.append,
    )
    assert sweep.clients == [5, 15]
    assert len(hook_calls) == 2
    assert sweep.throughputs[1] > sweep.throughputs[0]
    assert "nio-1w" in sweep.table()


def test_sweep_result_accessors():
    s = fake_sweep("x", [(10, 100.0), (20, 180.0), (30, 170.0)])
    assert s.peak_throughput == 180.0
    assert s.response_times_ms == [10.0, 10.0, 10.0]
    assert len(s.connection_times_ms) == 3
    assert s.client_timeout_rates == [0.0, 0.0, 0.0]
    assert s.connection_reset_rates == [0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_peak_and_plateau():
    s = fake_sweep("x", [(1, 50.0), (2, 100.0), (3, 90.0), (4, 95.0)])
    assert peak_throughput(s) == 100.0
    assert plateau_throughput(s, top_k=2) == 97.5


def test_scaling_factor_and_relative_peak():
    up = fake_sweep("up", [(1, 100.0), (2, 100.0), (3, 100.0)])
    smp = fake_sweep("smp", [(1, 195.0), (2, 205.0), (3, 200.0)])
    assert scaling_factor(up, smp) == pytest.approx(2.0)
    assert relative_peak(smp, up) == pytest.approx(2.0)


def test_find_crossover_interpolates():
    xs = [1, 2, 3, 4]
    a = [0.0, 5.0, 15.0, 30.0]
    b = [10.0, 10.0, 10.0, 10.0]
    x = find_crossover(xs, a, b)
    assert 2.0 < x < 3.0


def test_find_crossover_none_when_never():
    assert find_crossover([1, 2], [1.0, 2.0], [5.0, 6.0]) is None


def test_find_crossover_validates_lengths():
    with pytest.raises(ValueError):
        find_crossover([1], [1.0, 2.0], [1.0])


def test_best_configuration_ranking():
    sweeps = [
        fake_sweep("a", [(1, 10.0)]),
        fake_sweep("b", [(1, 30.0)]),
        fake_sweep("c", [(1, 20.0)]),
    ]
    winner, ranking = best_configuration(sweeps)
    assert winner.label == "b"
    assert [r[0] for r in ranking] == ["b", "c", "a"]
    with pytest.raises(ValueError):
        best_configuration([])


# ---------------------------------------------------------------------------
# profiles / scenarios
# ---------------------------------------------------------------------------

def test_profiles_exist_and_are_ordered():
    assert set(PROFILES) == {"quick", "standard", "full", "scale"}
    assert PROFILES["quick"].points <= PROFILES["standard"].points
    assert PROFILES["standard"].duration < PROFILES["full"].duration
    # warmup outlives the 15 s idle timeout in every figure profile
    # (fig 3 needs it); the scale profile instead needs its measurement
    # window to outlast the fluid generator's 10 s abandon ladder.
    figure_profiles = [PROFILES[n] for n in ("quick", "standard", "full")]
    assert all(p.warmup > 15.0 for p in figure_profiles)
    assert PROFILES["scale"].duration >= 10.0


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def test_figure_runner_caches_sweeps():
    runner = FigureRunner(profile=TINY)
    s1 = runner.sweep(ServerSpec.nio(1), UP_GIGABIT)
    s2 = runner.sweep(ServerSpec.nio(1), UP_GIGABIT)
    assert s1 is s2


def test_figure_runner_distinguishes_idle_timeout():
    runner = FigureRunner(profile=TINY)
    a = runner.sweep(ServerSpec.httpd(8, idle_timeout=15.0), UP_GIGABIT)
    b = runner.sweep(ServerSpec.httpd(8, idle_timeout=5.0), UP_GIGABIT)
    assert a is not b


def test_figure_3_structure():
    runner = FigureRunner(profile=TINY)
    figs = runner.figure_3()
    assert [f.figure_id for f in figs] == ["fig3a", "fig3b"]
    for fig in figs:
        assert len(fig.series) == 2
        assert fig.series[0].x == list(TINY.clients)
        assert len(fig.series[0].y) == len(TINY.clients)
    assert "clients" in figs[0].table()


def test_figure_9_reuses_best_config_runs():
    runner = FigureRunner(profile=TINY)
    runner.figure_9()
    before = len(runner._cache)
    runner.figure_10()  # same sweeps, different metric
    assert len(runner._cache) == before


def test_figure_table_renders_notes():
    runner = FigureRunner(profile=TINY)
    fig = runner.figure_3()[1]
    assert "note:" in fig.table()
