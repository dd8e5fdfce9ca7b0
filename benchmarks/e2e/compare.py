"""Compare two results files written by ``run.py --out``.

Usage::

    python3 benchmarks/e2e/compare.py BASE.json NEW.json

For each workload and end-to-end metric it prints both medians with their
quartiles, the ratio NEW/BASE, and a verdict against the metric's bound in
BENCHMARK.json:

* ``unresolved`` -- either side's spread (interquartile range over median)
  exceeds the bound, unless every NEW repetition beats every BASE one;
* ``worse`` -- NEW's median is worse than BASE's by more than the bound;
* ``better`` -- NEW's median is better by more than either side's spread;
* ``same`` -- otherwise.

It also compares the failed share of repetitions and, when both files ran
the same seed, whether every exact count is identical.  Exits 1 if any
verdict is ``worse`` or NEW failed a larger share of repetitions.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parents[2]


def spread(m: dict) -> float:
    return (m["q3"] - m["q1"]) / m["median"] if m["median"] else 0.0


def verdict(base: dict, new: dict, bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new["median"] - base["median"]) / base["median"]
    if max(spread(base), spread(new)) > bound:
        beats = (max(new["values"]) < min(base["values"]) if better == "lower"
                 else min(new["values"]) > max(base["values"]))
        return "better" if beats else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > max(spread(base), spread(new)):
        return "better"
    return "same"


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    regressed = False

    print(f"{'workload':18s} {'metric':12s} {'base median [q1, q3]':>30s} "
          f"{'new median [q1, q3]':>30s} {'new/base':>9s}  verdict")
    for workload, b in base["workloads"].items():
        n = new["workloads"].get(workload)
        if n is None:
            print(f"{workload:18s} missing from {argv[1]}")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in b["metrics"] or name not in n["metrics"]:
                print(f"{workload:18s} {name:12s} not measured on both sides")
                continue
            bm, nm = b["metrics"][name], n["metrics"][name]
            v = verdict(bm, nm, metric["bound"], metric["better"])
            regressed |= v == "worse"
            print(f"{workload:18s} {name:12s} "
                  f"{bm['median']:>10.4g} [{bm['q1']:.4g}, {bm['q3']:.4g}] n={bm['n']:<2d} "
                  f"{nm['median']:>10.4g} [{nm['q1']:.4g}, {nm['q3']:.4g}] n={nm['n']:<2d} "
                  f"{nm['median'] / bm['median']:>8.3f}x  {v} "
                  f"(bound {metric['bound']:.0%}, base {bm['median']:.4g} {bm['unit']})")
        b_share = b["failed"] / b["attempted"]
        n_share = n["failed"] / n["attempted"]
        failed_more = n_share > b_share
        regressed |= failed_more
        print(f"{workload:18s} {'failed':12s} {b['failed']}/{b['attempted']} -> "
              f"{n['failed']}/{n['attempted']}{'  worse' if failed_more else ''}")
        if b["seed"] == n["seed"] and "counts" in b and "counts" in n:
            differ = [k for k, v in b["counts"].items() if n["counts"].get(k) != v]
            print(f"{workload:18s} {'counts':12s} "
                  + ("identical" if not differ else "differ: " + ", ".join(differ)))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
