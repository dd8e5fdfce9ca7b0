"""Performance trajectory of the reproduction pipeline itself.

Two measurements, two JSON artifacts:

* :func:`measure_kernel` -> ``BENCH_kernel.json``: events/second of the
  three kernel micro-benchmarks (timeout chain, processor-sharing CPU
  bursts, fluid-link transmissions).  These bound the dispatch cost the
  whole figure suite leans on (~10^7 events per full regeneration).
* :func:`measure_figures` -> ``BENCH_figures.json``: wall-clock seconds
  to regenerate paper figures serially and with a worker pool, plus the
  speedup.  This is the headline number for the parallel sweep runner.
* :func:`measure_scale` -> ``BENCH_scale.json``: wall-clock, peak RSS,
  live-object counts and cyclic-collector runs of the fluid-population
  scale sweep (100k-1M client sessions), each point in a fresh
  subprocess so ``ru_maxrss`` is an honest per-point peak.

Both artifacts carry a ``schema`` tag, the measurement environment
(python version, cpu count, profile) and a caller-supplied ``label`` so
successive commits can be compared (see ``benchmarks/bench_perf_trajectory.py``
and EXPERIMENTS.md).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional

__all__ = [
    "KERNEL_BENCHES",
    "measure_kernel",
    "measure_figures",
    "measure_scale",
    "write_json",
]

#: (name, runner, default event count).  Runners return the number of
#: events they dispatched so events/sec = n / elapsed.
KERNEL_BENCHES = (
    "timeout_chain",
    "cpu_bursts",
    "link_transmissions",
    "idle_timeout_storm",
)


def _environment() -> Dict:
    """Provenance block shared by both artifacts."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
    }


def _kernel_runner(name: str):
    # Imported lazily so `repro.core` does not depend on benchmarks/.
    from ..net import Link
    from ..osmodel import CPU
    from ..sim import Simulator

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
        # Completion goes through CPU.execute_call — the bare-callback
        # fast path the TCP reject charge and the fluid boundary use —
        # so the bench measures the station's real hot-path cost, not
        # Event allocation + kernel dispatch on top of it.
        def run(n: int) -> int:
            sim = Simulator()
            cpu = CPU(sim, nproc=2, smp_efficiency=1.0)
            done = [0]

            def fin() -> None:
                done[0] += 1

            for i in range(n):
                sim.call_later(i * 1e-4, cpu.execute_call, 5e-4, fin)
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
    if name == "idle_timeout_storm":
        # The cancel-heavy benchmark: httpd's 4096-connection pool, each
        # connection holding a 15 s idle-reap deadline that every batch
        # of arrivals pushes back out (Timer.rearm).  In wheel mode each
        # re-arm is an O(1) node relocation; the heap-only baseline pays
        # a tombstone + heappush + amortised compaction per re-arm.
        def run(n: int, wheel: bool = True) -> int:
            sim = Simulator(wheel=wheel)
            conns, batch, interval, idle = 4096, 128, 0.25, 15.0
            reaped = [0]

            def reap(i: int) -> None:
                reaped[0] += 1

            timers = [sim.schedule_timer(idle, reap, i) for i in range(conns)]
            state = [0, 0]  # rotation position, re-arms performed

            def driver() -> None:
                pos, done = state
                take = batch if batch <= n - done else n - done
                for k in range(pos, pos + take):
                    timers[k % conns].rearm(idle)
                state[0] = (pos + take) % conns
                state[1] = done + take
                if state[1] < n:
                    sim.call_later(interval, driver)

            sim.call_later(interval, driver)
            # Stop after the last batch: the measured region is the storm
            # itself, not the final drain of 4096 reaps (identical in
            # both modes).
            sim.run(until=interval * ((n + batch - 1) // batch + 1))
            return state[1]

        return run
    raise ValueError(f"unknown kernel benchmark {name!r}")


def measure_kernel(
    n: int = 20_000,
    rounds: int = 3,
    label: str = "",
) -> Dict:
    """Events/second for each kernel micro-benchmark (best of ``rounds``).

    Best-of is the right statistic for a floor check: scheduling noise
    only ever makes a round *slower*, so the fastest round is the
    closest estimate of the true cost.
    """
    def best_of(run, count: int, **kwargs) -> float:
        run(count, **kwargs)  # warm caches/allocator before timing
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            dispatched = run(count, **kwargs)
            elapsed = time.perf_counter() - t0
            if dispatched != count:
                raise RuntimeError(
                    f"dispatched {dispatched}, expected {count}"
                )
            best = min(best, elapsed)
        return best

    results: Dict[str, Dict] = {}
    for name in KERNEL_BENCHES:
        run = _kernel_runner(name)
        if name == "cpu_bursts":
            count = max(1, n // 2)
        elif name == "idle_timeout_storm":
            # The storm arms 4096 standing timers before the re-arm
            # churn starts; it needs a longer run to amortise that setup
            # into the per-op rate.
            count = n * 3
        else:
            count = n
        best = best_of(run, count)
        results[name] = row = {
            "events": count,
            "best_seconds": round(best, 6),
            "events_per_second": round(count / best, 1),
        }
        if name == "idle_timeout_storm":
            # The storm is the wheel's acceptance benchmark: measure the
            # identical workload again on the heap-only kernel
            # (tombstone + compaction cancellation) and report the
            # speedup the timing wheel buys.
            heap_best = best_of(run, count, wheel=False)
            row["heap_baseline_events_per_second"] = round(
                count / heap_best, 1
            )
            row["wheel_speedup"] = round(heap_best / best, 3)
    return {
        "schema": "repro-bench-kernel/4",
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
    # Cyclic-collector runs per generation (0, 1, 2) during run().
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
    """
    import tempfile

    from .figures import PAPER_FIGURES, FigureRunner
    from .runner import resolve_jobs
    from .scenarios import PROFILES
    from .store import RunStore

    names = list(figures or PAPER_FIGURES)
    prof = PROFILES[profile]
    effective_jobs = resolve_jobs(jobs if jobs else 0)
    sdir = store_dir or tempfile.mkdtemp(prefix="repro-figstore-")

    def regen(n_jobs: Optional[int], store: Optional[RunStore]) -> float:
        runner = FigureRunner(
            profile=prof, seed=seed, jobs=n_jobs, store=store
        )
        t0 = time.perf_counter()
        runner.run_figures(names)
        return time.perf_counter() - t0

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
            "dir": os.path.abspath(sdir),
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


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    """CLI shim used by ``benchmarks/bench_perf_trajectory.py``."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kernel-out", default="BENCH_kernel.json")
    parser.add_argument("--figures-out", default="BENCH_figures.json")
    parser.add_argument("--scale-out", default="BENCH_scale.json")
    parser.add_argument("--skip-scale", action="store_true",
                        help="skip the fluid scale sweep")
    parser.add_argument("--scale-clients", default="",
                        help="comma-separated scale-sweep client counts "
                             "(default: 100000,250000,500000,1000000)")
    parser.add_argument("--label", default="")
    parser.add_argument("--profile", default="quick")
    parser.add_argument("--jobs", type=int, default=0,
                        help="workers for the parallel timing (0 = n_cpus)")
    parser.add_argument("--figures", default="",
                        help="comma-separated figure method names "
                             "(default: all ten)")
    parser.add_argument("--skip-figures", action="store_true",
                        help="only run the kernel micro-benchmarks")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="persistent run-store directory for the "
                             "figure timings (default: fresh temp dir); "
                             "a pre-warmed store turns the serial pass "
                             "into a resume")
    args = parser.parse_args(argv)

    kernel = measure_kernel(label=args.label)
    write_json(kernel, args.kernel_out)
    for name, row in kernel["benchmarks"].items():
        print(f"[kernel] {name:>20s}: {row['events_per_second']:>12,.0f} ev/s")
        if "wheel_speedup" in row:
            print(
                f"[kernel] {'':>20s}  heap baseline "
                f"{row['heap_baseline_events_per_second']:>12,.0f} ev/s "
                f"-> wheel speedup {row['wheel_speedup']:.2f}x"
            )
    print(f"wrote {args.kernel_out}")

    if not args.skip_scale:
        counts = [
            int(c) for c in args.scale_clients.split(",") if c
        ] or None
        scale = measure_scale(client_counts=counts, label=args.label)
        for point in scale["points"]:
            rss_mb = point["peak_rss_bytes"] / (1024 * 1024)
            print(
                f"[scale] {point['clients']:>9,d} sessions: "
                f"{point['wall_seconds']:7.1f} s wall, "
                f"{rss_mb:7.0f} MB peak RSS, "
                f"{point['row']['replies/s']:>9,.1f} replies/s, "
                f"{point['row']['timeout/s']:>10,.1f} timeout/s"
            )
        write_json(scale, args.scale_out)
        print(f"wrote {args.scale_out}")

    if not args.skip_figures:
        figures = [f for f in args.figures.split(",") if f] or None
        report = measure_figures(
            figures=figures, profile=args.profile,
            jobs=args.jobs, label=args.label, store_dir=args.store,
        )
        store = report["store"]
        cold_tag = " (pre-warmed store)" if store["prewarmed"] else ""
        print(f"[figures] serial   {report['serial_seconds']:8.2f} s{cold_tag}")
        print(f"[figures] jobs={report['jobs']:<3d} {report['parallel_seconds']:8.2f} s")
        print(f"[figures] speedup  {report['speedup']:8.2f}x")
        print(f"[figures] warm     {store['warm_seconds']:8.2f} s "
              f"({store['warm_speedup']:.1f}x vs cold, "
              f"{store['warm_stats']['hits']} store hits)")
        write_json(report, args.figures_out)
        print(f"wrote {args.figures_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
