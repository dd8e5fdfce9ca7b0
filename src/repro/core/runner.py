"""Point resolution and execution, serial or over a process pool, and the store.

A client-count sweep is embarrassingly parallel: every point is a fully
self-contained :class:`~repro.core.experiment.Experiment` (own simulator,
own seeded RNG streams, own metrics), so points can run in worker
processes with no shared state.  This module is the *execution layer* of
the three-layer experiment core (DESIGN.md §10): it resolves picklable
:class:`PointSpec` objects and runs them in-process or over a
``concurrent.futures.ProcessPoolExecutor``, optionally consulting a
content-addressed :class:`~repro.core.store.RunStore` so finished points
are never re-run.

Determinism contract
--------------------
Parallel output is *byte-identical* to serial output: each point is keyed
by its own ``(server, workload, machine, network, seed)`` spec, results
are collected in submission order, and ``point_hook`` fires in point
order regardless of completion order.  ``tests/test_parallel_runner.py``
asserts this for multiple architectures and scenarios.  With a store
mounted, results additionally round-trip through the store's JSON files
— reporting reads what the store holds, never the in-memory object — and
``tests/test_store_resume.py`` pins that the round trip changes nothing.

Worker processes never mutate parent state.  Nor does a run mutate its
spec: ``build_server`` mounts a deep copy of the
:class:`~repro.overload.OverloadControl` a ``ServerSpec`` carries, so a
point's policy state starts fresh whether it runs serially or in a
worker.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence

from ..metrics.report import RunMetrics
from ..net.topology import NetworkSpec
from ..osmodel.machine import MachineSpec
from .experiment import Experiment
from .params import ServerSpec, WorkloadSpec
from .store import RunStore

__all__ = ["PointSpec", "run_point", "run_points", "resolve_jobs"]


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: ``None`` or 1 = serial, 0 = one worker per CPU."""
    if jobs is None:
        return 1
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


@dataclass(frozen=True)
class PointSpec:
    """One sweep point, picklable for process-pool transport."""

    server: ServerSpec
    workload: WorkloadSpec
    machine: MachineSpec
    network: NetworkSpec
    seed: int = 42

    def experiment(self) -> Experiment:
        """The fully-specified experiment for this point."""
        return Experiment(
            server=self.server,
            workload=self.workload,
            machine=self.machine,
            network=self.network,
            seed=self.seed,
        )

    def provenance(self) -> dict:
        """Human-readable identity stored next to this point's metrics."""
        return {
            "server": self.server.label,
            "scenario": f"{self.machine.cpus}cpu-{self.network.name}",
            "clients": self.workload.clients,
            "seed": self.seed,
        }


def run_point(spec: PointSpec) -> RunMetrics:
    """Execute one sweep point (module-level so pools can pickle it)."""
    return spec.experiment().run()


def _run_in_order(
    specs: Sequence[PointSpec], jobs: Optional[int]
) -> Iterator[RunMetrics]:
    """Yield ``run_point(spec)`` for each spec, in submission order.

    One job or at most one spec runs in-process.  Otherwise the specs fan
    out over a process pool, but results are still yielded in submission
    order regardless of completion order, so downstream consumers (store
    writes, point hooks, tables) cannot observe the parallelism.
    """
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(specs) <= 1:
        for spec in specs:
            yield run_point(spec)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(specs))) as pool:
        futures = [pool.submit(run_point, spec) for spec in specs]
        for future in futures:  # submission order == spec order
            yield future.result()


def run_points(
    specs: Sequence[PointSpec],
    jobs: Optional[int] = None,
    point_hook: Optional[Callable[[RunMetrics], None]] = None,
    store: Optional[RunStore] = None,
) -> List[RunMetrics]:
    """Run every point; return metrics in point order.

    ``jobs <= 1`` (the default) runs serially in-process.  With more
    jobs, points fan out over a process pool; results (and ``point_hook``
    invocations) still arrive in point order, so callers cannot observe
    the difference except in wall-clock.

    With a ``store`` mounted, points whose content address is already
    present are *not* executed — their metrics are read back from the
    store — and every freshly executed point is persisted (atomically,
    in point order) before its result is delivered.  A run killed midway
    therefore leaves every delivered point on disk, and re-running the
    same sweep resumes: only the missing points execute.  Delivered
    results always come from the store's JSON files, so cached and fresh
    points are the same kind of object (``tests/test_store_resume.py``
    pins byte-identity against store-less runs).
    """
    specs = list(specs)
    if store is None:
        results: List[RunMetrics] = []
        for metrics in _run_in_order(specs, jobs):
            results.append(metrics)
            if point_hook is not None:
                point_hook(metrics)
        return results

    keys = [store.key_for(spec) for spec in specs]
    cached: dict = {}
    missing: List[int] = []
    for index, key in enumerate(keys):
        metrics = store.get(key)
        if metrics is not None:
            cached[index] = metrics
        else:
            missing.append(index)

    fresh = _run_in_order([specs[i] for i in missing], jobs)
    results = []
    for index, spec in enumerate(specs):
        if index in cached:
            metrics = cached[index]
        else:
            live = next(fresh)
            store.put(keys[index], live, provenance=spec.provenance())
            # Reporting reads the store, not the live object: the JSON
            # round trip is exercised on every fresh point, so a warm
            # run cannot differ from the cold run that filled it.
            metrics = store.fetch(keys[index])
            if metrics is None:  # pragma: no cover - put just succeeded
                metrics = live
        results.append(metrics)
        if point_hook is not None:
            point_hook(metrics)
    return results
