"""Resume semantics: interrupted sweeps continue, warm runs are free.

The acceptance bar (ISSUE 6): a warm (fully cached) regeneration yields
RunMetrics byte-identical to the cold run that filled the store and
costs a small fraction of its wall-clock; an interrupted sweep resumed
against the same store re-executes only the missing points; changing the
code fingerprint invalidates everything.  The interruption pattern
mirrors the wheel-PR equivalence tests: same inputs, two paths, ``==``
over whole RunMetrics rows.
"""

from __future__ import annotations

import time

import pytest

from repro.core import (
    UP_GIGABIT,
    FigureRunner,
    MeasurementProfile,
    PointSpec,
    RunStore,
    ServerSpec,
    WorkloadSpec,
    run_point,
    run_points,
    sweep_clients,
)
from repro.sim import Simulator

CLIENTS = [10, 25, 40]


def _specs(seed=42):
    return [
        PointSpec(
            server=ServerSpec.nio(1),
            workload=WorkloadSpec(clients=c, duration=1.0, warmup=1.0),
            machine=UP_GIGABIT.machine,
            network=UP_GIGABIT.network,
            seed=seed,
        )
        for c in CLIENTS
    ]


class Interrupted(RuntimeError):
    pass


def test_crash_resume_rows_byte_identical(tmp_path):
    """Kill a sweep mid-run; resume; rows == an uninterrupted cold run."""
    # Uninterrupted cold run, its own store (the reference rows).
    cold_store = RunStore(str(tmp_path / "cold"), fingerprint="fp")
    reference = run_points(_specs(), store=cold_store)
    assert cold_store.stats()["puts"] == len(CLIENTS)

    # Interrupted run: die after the first point has been delivered.
    crash_store = RunStore(str(tmp_path / "crash"), fingerprint="fp")
    delivered = []

    def bomb(metrics):
        delivered.append(metrics)
        if len(delivered) == 1:
            raise Interrupted("simulated crash mid-sweep")

    with pytest.raises(Interrupted):
        run_points(_specs(), store=crash_store, point_hook=bomb)
    # The finished point survived the crash, the rest did not run.
    assert crash_store.stats()["puts"] == 1

    # Resume with a fresh process's view of the same directory.
    resumed_store = RunStore(str(tmp_path / "crash"), fingerprint="fp")
    resumed = run_points(_specs(), store=resumed_store)
    assert resumed == reference  # byte-identical, field for field
    # Only the missing points were executed.
    assert resumed_store.stats()["puts"] == len(CLIENTS) - 1
    assert resumed_store.stats()["hits"] == 1


def test_warm_run_executes_nothing_and_matches(tmp_path):
    store = RunStore(str(tmp_path), fingerprint="fp")
    cold = run_points(_specs(), store=store)

    warm_store = RunStore(str(tmp_path), fingerprint="fp")
    warm = run_points(_specs(), store=warm_store)
    assert warm == cold
    assert warm_store.stats() == {
        "hits": len(CLIENTS), "misses": 0, "puts": 0,
    }


def test_store_backed_equals_storeless(tmp_path):
    """The store's JSON round trip changes nothing vs a live run."""
    live = run_points(_specs())
    store = RunStore(str(tmp_path), fingerprint="fp")
    stored = run_points(_specs(), store=store)
    assert stored == live


def test_fingerprint_change_invalidates_everything(tmp_path):
    v1 = RunStore(str(tmp_path), fingerprint="v1")
    run_points(_specs(), store=v1)

    v2 = RunStore(str(tmp_path), fingerprint="v2")
    run_points(_specs(), store=v2)
    assert v2.stats()["hits"] == 0
    assert v2.stats()["puts"] == len(CLIENTS)


def test_environment_cannot_change_a_stored_row(tmp_path, monkeypatch):
    """A row depends on its spec alone, so its store key is honest.

    The spec is discrete and its population exceeds the default fluid
    budget (4096), so a hidden environment switch into fluid mode would
    store a different row under the same key.
    """
    spec = PointSpec(
        server=ServerSpec.nio(1),
        workload=WorkloadSpec(clients=5000, duration=2.0, warmup=1.0),
        machine=UP_GIGABIT.machine,
        network=UP_GIGABIT.network,
    )
    switches = ("REPRO_FLUID", "REPRO_NO_WHEEL", "REPRO_NO_WORKLOAD_CACHE")
    for name in switches:
        monkeypatch.setenv(name, "1")
    assert Simulator().wheel_enabled is True
    stored = run_points([spec], store=RunStore(str(tmp_path), fingerprint="fp"))

    for name in switches:
        monkeypatch.delenv(name)
    assert stored == [run_point(spec)]


def test_parallel_resume_matches_serial(tmp_path):
    """jobs=3 with a store: same rows, cached points not re-executed."""
    serial_store = RunStore(str(tmp_path / "serial"), fingerprint="fp")
    serial = run_points(_specs(), store=serial_store)

    # Pre-seed one point, then run the rest in parallel.
    pooled_store = RunStore(str(tmp_path / "pooled"), fingerprint="fp")
    run_points(_specs()[:1], store=pooled_store)
    pooled = run_points(_specs(), jobs=3, store=pooled_store)
    assert pooled == serial
    assert pooled_store.stats()["puts"] == len(CLIENTS)  # 1 seed + 2 resumed


def test_warm_figures_under_ten_percent_of_cold(tmp_path):
    """The headline acceptance number: warm regeneration < 10% of cold.

    Uses figure_3 (two configurations) on a tiny custom profile so the
    cold pass costs seconds, not the full suite's ~1000 s.
    """
    profile = MeasurementProfile(
        "tiny", clients=(10, 30), duration=1.5, warmup=1.5
    )

    def regen(store):
        runner = FigureRunner(profile=profile, store=store)
        t0 = time.perf_counter()
        figs = runner.run_figures(("figure_3",))
        return time.perf_counter() - t0, figs

    cold_store = RunStore(str(tmp_path), fingerprint="fp")
    cold_s, cold_figs = regen(cold_store)

    warm_store = RunStore(str(tmp_path), fingerprint="fp")
    warm_s, warm_figs = regen(warm_store)

    assert warm_store.stats()["puts"] == 0  # nothing re-ran
    assert [f.to_dict() for figs in warm_figs.values() for f in figs] == \
           [f.to_dict() for figs in cold_figs.values() for f in figs]
    assert warm_s < 0.1 * cold_s, (
        f"warm {warm_s:.3f}s vs cold {cold_s:.3f}s"
    )


def test_sweep_clients_store_roundtrip(tmp_path):
    store = RunStore(str(tmp_path), fingerprint="fp")
    first = sweep_clients(
        ServerSpec.nio(1), UP_GIGABIT, [10, 20],
        duration=1.0, warmup=1.0, store=store,
    )
    again = sweep_clients(
        ServerSpec.nio(1), UP_GIGABIT, [10, 20],
        duration=1.0, warmup=1.0,
        store=RunStore(str(tmp_path), fingerprint="fp"),
    )
    assert again.points == first.points
    bare = sweep_clients(
        ServerSpec.nio(1), UP_GIGABIT, [10, 20], duration=1.0, warmup=1.0,
    )
    assert bare.points == first.points
