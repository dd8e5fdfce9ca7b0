"""End-to-end benchmark: time to a correct row, measured from outside.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S | --reps N] [--trace 0|1] [--out FILE]

Each repetition is a fresh child interpreter (child.py), started one at a
time with every ``REPRO_*`` variable removed, while this process measures
the host's CPU speed (calibrate.py), so no more than two processes are
ever busy.  Times are rescaled to the reference speed; the raw ones are in
the ``--out`` file.  Untraced repetitions give the end-to-end
metrics (``wall_s``, ``setup_s``, ``peak_rss_mb``) as medians; children
that stop at the run's start top ``setup_s`` up to five set-ups.  With
``--trace 1`` one more, sampled repetition gives per-layer self time, and
the exact counts and set-up parts are reported too.  A repetition fails
when its child exits non-zero or its row digest differs from the pinned
one in expected.json (for an unpinned seed: from the first repetition's).

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  ``--out`` writes the full results file that compare.py
reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import calibrate
from probe import LAYERS  # probe imports repro only when installed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PARTS = ("setup.import_s", "setup.population_s", "setup.surge_s", "setup.build_s")
COUNT_UNITS = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.wheel_scheduled": "count",
    "sim.wheel_cancelled": "count",
    "sim.timer_cancel_share": "share",
    "sim.wheel_batch_flushes": "count",
    "sim.tombstones_compacted": "count",
    "osmodel.cpu_bursts": "count",
    "net.link_transmissions": "count",
    "net.syns": "count",
    "net.syn_drop_share": "share",
    "net.accepted": "count",
    "servers.requests_served": "count",
    "servers.threads_peak": "count",
    "workload.replies": "count",
    "workload.client_timeouts": "count",
    "workload.fluid_materialized": "count",
    "obs.trace_requests": "count",
    "cluster.lb_picks": "count",
    "mem.live_objects": "count",
}
#: A hung child is killed after this long and counted as failed.
CHILD_TIMEOUT_S = 150.0
#: Untraced repetitions per workload even when the time budget is spent:
#: the slowest workload takes ~13 s a repetition here and still gets two.
MIN_REPS = 2
#: Set-ups per workload: when the full repetitions are fewer, set-up-only
#: children make up the rest, because one set-up varies by ±25%.
MIN_SETUPS = 5


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def repetition(workload: str, seed: int, traced: bool, setup_only: bool = False) -> dict:
    """Run one child; returns its report plus the parent-side timings.

    A ``setup_only`` child exits on entering ``Simulator.run``; its times
    are left raw for the caller to rescale.
    """
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    piped: Dict[str, str] = {}
    reader = threading.Thread(
        target=lambda: piped.update(zip(("out", "err"), proc.communicate())),
        daemon=True,
    )
    # While the child runs, this process calibrates the host's speed on
    # the other core (see calibrate.py): two busy processes, never more.
    chunks = []
    timed_out = False
    try:
        reader.start()
        while reader.is_alive():
            if time.monotonic() - spawned_at > CHILD_TIMEOUT_S:
                timed_out = True
                break
            chunks.append(calibrate.chunk())
    finally:
        if proc.poll() is None:
            proc.kill()
        reader.join()
        proc.wait()
    base = {"ok": False, "traced": traced, "setup_only": setup_only,
            "duration_s": time.monotonic() - spawned_at}
    if timed_out:
        return dict(base, error="timeout")
    out, err = piped["out"], piped["err"]
    if proc.returncode != 0:
        tail = (err.strip().splitlines() or ["?"])[-1]
        return dict(base, error=f"exit {proc.returncode}: {tail}")
    try:
        rep = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return dict(base, error="child printed no report")
    rep.update(base, ok=True)
    run_from = rep["run_entered_at"]
    rep["raw_setup_s"] = run_from - spawned_at
    rep["raw_import_s"] = rep["imported_at"] - spawned_at
    if not setup_only:
        rep["raw_wall_s"] = rep.pop("wall_s")
        # Chunks that overlap the child's start-up run slow for reasons of
        # their own (exec, imports), so only the run's chunks give the speed.
        rescale(rep, calibrate.speed(chunks, run_from, run_from + rep["raw_wall_s"])
                or calibrate.speed(chunks, spawned_at, time.monotonic()) or 1.0)
    return rep


def rescale(rep: dict, speed: float) -> None:
    """Set the times of ``rep`` at the reference speed from its raw ones."""
    rep["host_speed"] = speed
    rep["setup_s"] = rep["raw_setup_s"] * speed
    rep["setup.import_s"] = rep["raw_import_s"] * speed
    rep["setup.population_s"] = rep["population_s"] * speed
    rep["setup.surge_s"] = rep["surge_s"] * speed
    rep["setup.build_s"] = (
        rep["setup_s"] - rep["setup.import_s"]
        - rep["setup.population_s"] - rep["setup.surge_s"]
    )
    if "raw_wall_s" in rep:
        rep["wall_s"] = rep["raw_wall_s"] * speed
        counts = rep["counts"]
        counts["sim.events_per_s"] = counts["sim.events"] / rep["wall_s"]


def judge(rep: dict, reference: Optional[str]) -> None:
    """Mark ``rep`` failed unless it produced the reference row.

    The accounting checks hold for any seed, so they also guard seeds
    that have no pinned digest.
    """
    if not rep["ok"]:
        return
    c = rep["counts"]
    if reference is not None and rep["digest"] != reference:
        rep.update(ok=False, error=f"row digest {rep['digest'][:12]} != {reference[:12]}")
    elif c["workload.replies"] <= 0:
        rep.update(ok=False, error="no replies")
    elif c["net.accepted"] > c["net.syns"]:
        rep.update(ok=False, error="more connections accepted than SYNs received")
    elif c["workload.replies"] > c["servers.requests_served"]:
        rep.update(ok=False, error="more replies than requests served")


def summarize(values: List[float], unit: str) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"unit": unit, "median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def measure(workload: str, seed: int, seconds: float, reps: Optional[int],
            trace: bool, pinned: Optional[str]) -> dict:
    """All repetitions of one workload, and their summary."""
    started = time.monotonic()
    traced = repetition(workload, seed, traced=True) if trace else None
    untraced: List[dict] = []
    while True:
        untraced.append(repetition(workload, seed, traced=False))
        if reps is not None:
            if len(untraced) >= reps:
                break
        elif len(untraced) >= MIN_REPS:
            typical = statistics.median(r["duration_s"] for r in untraced)
            if time.monotonic() - started + typical > seconds:
                break
    setups = [repetition(workload, seed, traced=False, setup_only=True)
              for _ in range(MIN_SETUPS - len(untraced))]

    reference = pinned
    if reference is None:
        first = next((r for r in untraced if r["ok"]), None)
        reference = first["digest"] if first else None
    every = untraced + setups + ([traced] if traced else [])
    for rep in untraced + ([traced] if traced else []):
        judge(rep, reference)
    good = [r for r in untraced if r["ok"]]
    good_setups = good + [r for r in setups if r["ok"]]
    failed = sum(not r["ok"] for r in every)
    result = {
        "seed": seed,
        "digest": reference,
        "pinned": pinned is not None,
        "attempted": len(every),
        "failed": failed,
        "correct": failed == 0 and bool(good),
        "metrics": {},
        "repetitions": every,
    }
    if not good:
        return result

    # A set-up-only child has no run to calibrate on; the host's speed
    # during the full repetitions stands in.
    speed = statistics.median(r["host_speed"] for r in good)
    for rep in good_setups[len(good):]:
        rescale(rep, speed)
    metrics = result["metrics"]
    for name, unit in E2E_UNITS.items():
        sample = good_setups if name == "setup_s" else good
        metrics[name] = summarize([r[name] for r in sample], unit)
    for name in SETUP_PARTS:
        metrics[name] = summarize([r[name] for r in good_setups], "s")
    metrics["raw_wall_s"] = summarize([r["raw_wall_s"] for r in good], "s")
    metrics["raw_setup_s"] = summarize([r["raw_setup_s"] for r in good_setups], "s")
    metrics["host_speed"] = summarize([r["host_speed"] for r in good], "x")
    for name, unit in COUNT_UNITS.items():
        metrics[name] = summarize([r["counts"][name] for r in good], unit)
    exact = [name for name, unit in COUNT_UNITS.items() if unit != "1/s"]
    result["counts"] = {name: good[0]["counts"][name] for name in exact}
    result["counts_repeat"] = all(
        r["counts"][name] == value for r in good for name, value in result["counts"].items()
    )
    if traced is not None and traced["ok"]:
        total = sum(traced["samples"].values())
        for layer in (*LAYERS, "other"):
            share = traced["samples"].get(layer, 0) / total if total else 0.0
            metrics[f"{layer}.self_share"] = summarize([share], "share")
            metrics[f"{layer}.self_s"] = summarize([share * traced["wall_s"]], "s")
        metrics["trace.samples"] = summarize([total], "count")
        overhead = traced["wall_s"] / metrics["wall_s"]["median"] - 1.0
        metrics["trace.overhead"] = summarize([overhead], "share")
    return result


def git_head() -> Optional[str]:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(results: Dict[str, dict], args) -> dict:
    reps = [r for res in results.values() for r in res["repetitions"] if r["ok"]]
    first = reps[0] if reps else {}
    return {
        "backend": sorted({r["kernel"]["backend"] for r in reps}),
        "wheel": sorted({r["kernel"]["wheel"] for r in reps}),
        "python": first.get("python", platform.python_version()),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_head": git_head(),
        "seed": args.seed,
        "repetitions": {"reps": args.reps, "seconds": args.seconds, "traced": args.trace},
        "repro_env_reached_child": any(r["repro_env"] for r in reps),
        "reference_chunk_s": calibrate.REFERENCE_CHUNK_S,
    }


def headline(results: Dict[str, dict], names: List[str]) -> dict:
    """The result line BENCHMARK.json describes; metric names get a
    workload prefix when more than one workload ran."""
    metrics = {}
    for workload, res in results.items():
        prefix = f"{workload}/" if len(results) > 1 else ""
        for name in names:
            if name in res["metrics"]:
                m = res["metrics"][name]
                metrics[prefix + name] = {"value": m["median"], "unit": m["unit"]}
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=[*names, "smoke"],
                        help="workload to run (repeatable; default: all of BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time budget per workload; repetitions stop when "
                             "the next one would overrun it")
    parser.add_argument("--reps", type=int, default=None,
                        help="exactly this many untraced repetitions "
                             "(overrides --seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out", default=None, help="write the full results file here")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so repetition() kills its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    pinned = json.loads((HERE / "expected.json").read_text())

    results: Dict[str, dict] = {}
    for workload in args.workload or names:
        res = measure(workload, args.seed, args.seconds, args.reps, bool(args.trace),
                      pinned.get(workload, {}).get(str(args.seed)))
        results[workload] = res
        print(f"== {workload}: {res['attempted'] - res['failed']}/{res['attempted']} ok, "
              f"digest {str(res['digest'])[:16]}")
        for rep in res["repetitions"]:
            if not rep["ok"]:
                print(f"   failed repetition: {rep['error']}")
        for name, m in res["metrics"].items():
            print(f"   {name:28s} {m['median']:>16.6g} {m['unit']:6s} "
                  f"[{m['q1']:.6g}, {m['q3']:.6g}] n={m['n']}")

    if args.out:
        payload = {
            "schema": "repro-bench-e2e/1",
            "provenance": provenance(results, args),
            "workloads": results,
        }
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=1) + "\n")
    key = "per_layer" if args.trace else "end_to_end"
    line = headline(results, [m["name"] for m in spec[key]])
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
