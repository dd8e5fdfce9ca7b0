"""One repetition of one workload, in a fresh interpreter.

Started by run.py with every ``REPRO_*`` variable removed and ``src`` on
``PYTHONPATH``.  Prints one JSON object on stdout: monotonic timestamps
(compared with the parent's spawn time), wall time inside
``Simulator.run``, peak RSS, the row digest, exact counts and, when
traced, the per-layer sample counts.  With ``--setup-only`` it stops on
entering ``Simulator.run`` and reports the set-up timestamps alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import time

import probe
import repro
import workloads


def main() -> None:
    imported_at = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="report the set-up times and exit on entering Simulator.run")
    args = parser.parse_args()

    sampler = None
    if args.trace:
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        sampler = probe.LayerSampler(src_root)
    tap = probe.Probe(sampler, stop_at_run=args.setup_only)
    tap.install()

    experiment = workloads.resolve(args.workload).build(args.seed)
    try:
        row = experiment.run()
    except probe.SetupDone:
        row = None
    out = {
        "imported_at": imported_at,
        "run_entered_at": tap.run_entered_at,
        "population_s": tap.call_s["population"],
        "surge_s": tap.call_s["surge"],
        "kernel": tap.kernel(),
        "python": platform.python_version(),
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }
    if row is not None:
        # Read the high-water mark before counting objects: gc.get_objects()
        # allocates a list as long as the heap.
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        replicas = getattr(experiment, "replica_metrics", None)
        gc.collect()
        out.update(
            wall_s=tap.wall_s,
            peak_rss_mb=rss_kb / 1024.0,
            digest=probe.row_digest(row, replicas),
            counts={**tap.counts(row), "mem.live_objects": len(gc.get_objects())},
        )
    if sampler is not None:
        out["samples"] = dict(sampler.samples)
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
    # Everything is reported; skip tearing down a heap of up to a million
    # objects, which only delays the next repetition.
    os._exit(0)
