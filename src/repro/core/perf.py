"""Performance trajectory of the reproduction pipeline itself.

Three measurements, three JSON artifacts, written by ``repro bench``:

* :func:`measure_kernel` -> ``BENCH_kernel.json``: events/second of the
  four kernel micro-benchmarks (timeout chain, processor-sharing CPU
  bursts, fluid-link transmissions, timed-wait storm).  These bound the
  dispatch cost the whole figure suite leans on (~10^7 events per full
  regeneration).  :func:`kernel_runner` is the one copy of each and
  :data:`KERNEL_EVENTS` the one table of their event counts; the
  pytest-benchmark floors in ``benchmarks/bench_kernel.py`` use both.
* :func:`measure_figures` -> ``BENCH_figures.json``: wall-clock seconds
  to regenerate paper figures serially and with a worker pool, plus the
  speedup.  This is the headline number for the parallel sweep runner.
* :func:`measure_scale` -> ``BENCH_scale.json``: wall-clock, peak RSS,
  live-object counts and cyclic-collector runs of the fluid-population
  scale sweep (100k-1M client sessions), each point in a fresh
  subprocess so ``ru_maxrss`` is an honest per-point peak.

Every artifact carries a ``schema`` tag, the measurement environment
(python version, cpu count, profile) and a caller-supplied ``label`` so
successive commits can be compared (see EXPERIMENTS.md).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional

__all__ = [
    "KERNEL_EVENTS",
    "kernel_runner",
    "measure_kernel",
    "measure_figures",
    "measure_scale",
    "write_json",
]

#: Kernel micro-benchmark name (see :func:`kernel_runner`) -> events per
#: round.  The timed-wait storm parks 4096 connections before its first
#: arrival, so it needs a longer run to amortise that set-up into the
#: per-arrival rate.
KERNEL_EVENTS: Dict[str, int] = {
    "timeout_chain": 20_000,
    "cpu_bursts": 10_000,
    "link_transmissions": 20_000,
    "timed_wait_storm": 60_000,
}


def _environment() -> Dict:
    """Provenance block shared by every artifact."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
    }


def kernel_runner(name: str):
    """The micro-benchmark ``name`` as ``run(n)``, which does ``n`` events
    on a fresh simulator and returns how many it did (events/sec = n /
    elapsed)."""
    from ..net import Link
    from ..osmodel import CPU
    from ..sim import Simulator, Store

    if name == "timeout_chain":
        def run(n: int) -> int:
            sim = Simulator()
            count = [0]

            def chain():
                for _ in range(n):
                    yield sim.timeout(0.001)
                    count[0] += 1

            sim.process(chain())
            sim.run()
            return count[0]

        return run
    if name == "cpu_bursts":
        # Each burst completes through CPU.execute's event, the path
        # every server's _exec takes.
        def run(n: int) -> int:
            sim = Simulator()
            cpu = CPU(sim, nproc=2, smp_efficiency=1.0)
            done = [0]

            def fin(_ev) -> None:
                done[0] += 1

            def burst() -> None:
                cpu.execute(5e-4).callbacks.append(fin)

            for i in range(n):
                sim.call_later(i * 1e-4, burst)
            sim.run()
            return done[0]

        return run
    if name == "link_transmissions":
        def run(n: int) -> int:
            sim = Simulator()
            link = Link(sim, 1e9, 0.0002)
            done = [0]
            for _ in range(n):
                link.transmit(16_384).callbacks.append(
                    lambda _e: done.__setitem__(0, done[0] + 1)
                )
            sim.run()
            return done[0]

        return run
    if name == "timed_wait_storm":
        # httpd's 4096-connection pool, each connection parked in its
        # 15 s idle-reap wait the way Connection.server_recv parks it,
        # sim.within(inbox.get(), 15.0).  Every arrival beats the
        # deadline, so it settles a wait, cancels that wait's timeout (an
        # O(1) wheel unlink) and re-parks the connection.  Events are
        # arrivals.
        def run(n: int) -> int:
            sim = Simulator()
            conns, batch, interval, idle = 4096, 128, 0.25, 15.0
            inboxes = [Store(sim) for _ in range(conns)]
            served = [0]

            def connection(inbox):
                while True:
                    get = inbox.get()
                    yield sim.within(get, idle)
                    if not get.triggered:  # reaped: never in the storm
                        inbox.cancel(get)
                        return
                    served[0] += 1

            for inbox in inboxes:
                sim.process(connection(inbox))
            state = [0, 0]  # rotation position, items put

            def driver() -> None:
                pos, done = state
                take = batch if batch <= n - done else n - done
                for k in range(pos, pos + take):
                    inboxes[k % conns].put(k)
                state[0] = (pos + take) % conns
                state[1] = done + take
                if state[1] < n:
                    sim.call_later(interval, driver)

            sim.call_later(interval, driver)
            # Stop after the last batch: the measured region is the storm
            # itself, not the final reap of 4096 idle connections.
            sim.run(until=interval * ((n + batch - 1) // batch + 1))
            return served[0]

        return run
    raise ValueError(f"unknown kernel benchmark {name!r}")


def measure_kernel(rounds: int = 3, label: str = "") -> Dict:
    """Events/second for each kernel micro-benchmark (best of ``rounds``).

    Best-of is the right statistic for a floor check: scheduling noise
    only ever makes a round *slower*, so the fastest round is the
    closest estimate of the true cost.
    """
    def best_of(run, count: int) -> float:
        run(count)  # warm caches/allocator before timing
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            dispatched = run(count)
            elapsed = time.perf_counter() - t0
            if dispatched != count:
                raise RuntimeError(
                    f"dispatched {dispatched}, expected {count}"
                )
            best = min(best, elapsed)
        return best

    results: Dict[str, Dict] = {}
    for name, count in KERNEL_EVENTS.items():
        best = best_of(kernel_runner(name), count)
        results[name] = {
            "events": count,
            "best_seconds": round(best, 6),
            "events_per_second": round(count / best, 1),
        }
    return {
        "schema": "repro-bench-kernel/6",
        "label": label,
        "rounds": rounds,
        "environment": _environment(),
        "benchmarks": results,
    }


def _scale_point_main() -> None:  # pragma: no cover - subprocess entry
    """Run one scale-sweep point and print its measurements as JSON.

    Invoked by :func:`measure_scale` via ``python -c`` so every point
    starts from a fresh interpreter: ``ru_maxrss`` then reports *this
    point's* peak instead of the high-water mark of whichever larger
    point ran earlier in the process.
    """
    import gc
    import resource

    clients = int(sys.argv[1])
    duration = float(sys.argv[2])
    warmup = float(sys.argv[3])
    seed = int(sys.argv[4])
    budget = int(sys.argv[5])

    from ..workload.fluid import FluidConfig
    from .experiment import Experiment
    from .params import ServerSpec, WorkloadSpec

    workload = WorkloadSpec(
        clients=clients, duration=duration, warmup=warmup,
        fluid=FluidConfig(budget=budget if budget > 0 else None),
    )
    before = [gen["collections"] for gen in gc.get_stats()]
    t0 = time.perf_counter()
    metrics = Experiment(ServerSpec.nio(1), workload, seed=seed).run()
    wall = time.perf_counter() - t0
    # Cyclic-collector runs per generation (0, 1, 2) during run(): only
    # in set-up and row building, since Simulator.run dispatches with
    # automatic collection off.
    gc_collections = [
        gen["collections"] - n for gen, n in zip(gc.get_stats(), before)
    ]
    gc.collect()
    # ru_maxrss is kilobytes on Linux.
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    json.dump(
        {
            "clients": clients,
            "wall_seconds": round(wall, 3),
            "peak_rss_bytes": peak_rss,
            "live_objects": len(gc.get_objects()),
            "gc_collections": gc_collections,
            "row": metrics.row(),
            "fluid": {
                key: value
                for key, value in sorted(metrics.server_stats.items())
                if key.startswith("fluid.")
            },
        },
        sys.stdout,
    )


def measure_scale(
    client_counts: Optional[List[int]] = None,
    duration: float = 10.0,
    warmup: float = 6.0,
    seed: int = 42,
    budget: int = 4096,
    label: str = "",
) -> Dict:
    """Wall-clock + memory of the fluid scale sweep -> ``BENCH_scale.json``.

    Defaults follow the ``scale`` measurement profile: 100k-1M client
    sessions against the best uniprocessor configuration (nio-1, 1 Gbit),
    a window long enough to catch the 10 s abandon ladder.  The
    acceptance gate the CI artifact records: the 100k point must finish
    within 60 s wall-clock in under 1 GB of peak RSS.
    """
    import subprocess

    from .scenarios import SCALE_CLIENT_RANGE

    counts = list(client_counts or SCALE_CLIENT_RANGE)
    # The subprocess must resolve `repro` the same way this process did.
    src_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH", "")) if p
    )
    points: List[Dict] = []
    for clients in counts:
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.core.perf import _scale_point_main; "
                "_scale_point_main()",
                str(clients),
                str(duration),
                str(warmup),
                str(seed),
                str(budget),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"scale point {clients} failed:\n{proc.stderr}"
            )
        points.append(json.loads(proc.stdout))
    return {
        "schema": "repro-bench-scale/2",
        "label": label,
        "duration": duration,
        "warmup": warmup,
        "seed": seed,
        "budget": budget,
        "environment": _environment(),
        "points": points,
    }


def measure_figures(
    figures: Optional[List[str]] = None,
    profile: str = "quick",
    jobs: int = 0,
    seed: int = 42,
    label: str = "",
    store_dir: Optional[str] = None,
) -> Dict:
    """Wall-clock of figure regeneration: serial, parallel, and store-warm.

    Three timings with fresh :class:`FigureRunner` instances (so the
    in-memory sweep cache cannot leak between them):

    * *serial* — one worker, a run store mounted, so this pass doubles as
      the store's cold fill (store writes are noise next to simulation);
    * *parallel* — ``jobs`` workers, store-less;
    * *store-warm* — serial again against the now-full store: every point
      is a store hit, so this measures the resume/read path alone.

    With a persisted ``store_dir`` (e.g. restored from a CI cache), the
    "serial" pass is itself warm; ``store_prewarmed`` records that so the
    trajectory artifact stays honest across cached workflow runs.
    Without one, the store lives in a temporary directory that is
    removed on return, and the artifact's ``store.dir`` is ``None``.
    """
    import contextlib
    import tempfile

    from .figures import PAPER_FIGURES, FigureRunner
    from .runner import resolve_jobs
    from .scenarios import PROFILES
    from .store import RunStore

    names = list(figures or PAPER_FIGURES)
    prof = PROFILES[profile]
    effective_jobs = resolve_jobs(jobs)

    def regen(n_jobs: Optional[int], store: Optional[RunStore]) -> float:
        runner = FigureRunner(
            profile=prof, seed=seed, jobs=n_jobs, store=store
        )
        t0 = time.perf_counter()
        runner.run_figures(names)
        return time.perf_counter() - t0

    with (
        contextlib.nullcontext(store_dir)
        if store_dir
        else tempfile.TemporaryDirectory(prefix="repro-figstore-")
    ) as sdir:
        cold_store = RunStore(sdir)
        prewarmed = len(cold_store) > 0
        serial_s = regen(None, cold_store)
        parallel_s = regen(effective_jobs, None)
        warm_store = RunStore(sdir)
        warm_s = regen(None, warm_store)
    return {
        "schema": "repro-bench-figures/2",
        "label": label,
        "profile": profile,
        "figures": names,
        "seed": seed,
        "jobs": effective_jobs,
        "environment": _environment(),
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 3) if parallel_s else None,
        "store": {
            "dir": os.path.abspath(store_dir) if store_dir else None,
            "fingerprint": cold_store.fingerprint,
            "prewarmed": prewarmed,
            "cold_seconds": round(serial_s, 3),
            "warm_seconds": round(warm_s, 3),
            "warm_speedup": round(serial_s / warm_s, 3) if warm_s else None,
            "cold_stats": cold_store.stats(),
            "warm_stats": warm_store.stats(),
        },
    }


def write_json(payload: Dict, path: str) -> str:
    """Write one artifact, creating parent directories; returns ``path``."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path
