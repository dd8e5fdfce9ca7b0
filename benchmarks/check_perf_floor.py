"""CI guard: fail when kernel events/sec regresses >30% below the floor.

Usage (as in .github/workflows/ci.yml)::

    PYTHONPATH=src pytest benchmarks/bench_kernel.py \\
        benchmarks/bench_scale.py --benchmark-disable-gc \\
        --benchmark-json=bench.json
    python benchmarks/check_perf_floor.py bench.json

Reads the pytest-benchmark JSON report, converts each micro-benchmark's
fastest round into events/second, and compares against the checked-in
``benchmarks/perf_floor.json``.  Each bench names its floor key and its
event count in ``extra_info`` (``bench``, ``events``); entries without
them are ignored.  The floors are deliberately set at about half the
measured rates, and the check only fails below 70% of a floor — so CI
noise passes but a real kernel regression does not.

Scale-sweep memory gate::

    python benchmarks/check_perf_floor.py --scale BENCH_scale.json

Fluid client populations keep memory proportional to the boundary
budget, not to the population.  This mode enforces the gate
``repro.core.perf.measure_scale`` documents on the regenerated
``BENCH_scale.json``: every point stays under 1 GiB of peak RSS, the
100k point finishes within 60 s, and the 1M point's peak RSS is at most
1.10x the 100k point's.

Exit status: 0 = all benches clear the bar, 1 = regression, 2 = bad input.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: A bench fails only below this fraction of its floor (>30% regression).
TOLERANCE = 0.7

#: --scale: no sweep point may reach this peak RSS (1 GiB).
SCALE_RSS_LIMIT = 1 << 30

#: --scale: wall-clock limit for the 100k-client point (seconds).
SCALE_WALL_LIMIT = 60.0

#: --scale: allowed peak-RSS growth from 100k to 1M clients.
SCALE_RSS_GROWTH = 1.10

FLOOR_PATH = Path(__file__).resolve().parent / "perf_floor.json"


def check(report_path: str, floor_path: Path = FLOOR_PATH) -> int:
    try:
        report = json.loads(Path(report_path).read_text())
        floors = json.loads(floor_path.read_text())["floors"]
    except (OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"check_perf_floor: cannot read inputs: {exc}", file=sys.stderr)
        return 2

    seen = set()
    failed = False
    for bench in report.get("benchmarks", []):
        info = bench.get("extra_info") or {}
        key = info.get("bench")
        if key not in floors:
            continue
        rate = info["events"] / bench["stats"]["min"]
        floor = floors[key]
        bar = TOLERANCE * floor
        verdict = "ok" if rate >= bar else "REGRESSION"
        print(
            f"{key:>20s}: {rate:>12,.0f} ev/s "
            f"(floor {floor:,}, fail below {bar:,.0f}) {verdict}"
        )
        if rate < bar:
            failed = True
        seen.add(key)

    missing = set(floors) - seen
    if missing:
        print(
            f"check_perf_floor: report is missing benches: {sorted(missing)}",
            file=sys.stderr,
        )
        return 2
    return 1 if failed else 0


def check_scale(scale_path: str) -> int:
    """Memory and time gate over a ``BENCH_scale.json`` sweep."""
    try:
        points = {
            p["clients"]: p
            for p in json.loads(Path(scale_path).read_text())["points"]
        }
        small, large = points[100_000], points[1_000_000]
    except (OSError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"check_perf_floor: cannot read inputs: {exc}", file=sys.stderr)
        return 2

    failed = False
    for clients, point in sorted(points.items()):
        rss = point["peak_rss_bytes"]
        verdict = "ok" if rss < SCALE_RSS_LIMIT else "OVER 1 GiB"
        print(
            f"{clients:>9,} clients: {rss / 2**20:>8.1f} MiB peak RSS, "
            f"{point['wall_seconds']:>6.2f} s {verdict}"
        )
        failed |= rss >= SCALE_RSS_LIMIT
    wall = small["wall_seconds"]
    verdict = "ok" if wall <= SCALE_WALL_LIMIT else "TOO SLOW"
    print(
        f"100k point: {wall:.2f} s (limit {SCALE_WALL_LIMIT:.0f} s) {verdict}"
    )
    failed |= wall > SCALE_WALL_LIMIT
    growth = large["peak_rss_bytes"] / small["peak_rss_bytes"]
    verdict = "ok" if growth <= SCALE_RSS_GROWTH else "MEMORY GROWS"
    print(
        f"1M / 100k peak RSS: {growth:.3f}x "
        f"(limit {SCALE_RSS_GROWTH:.2f}x) {verdict}"
    )
    failed |= growth > SCALE_RSS_GROWTH
    return 1 if failed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--scale":
        if len(argv) != 2:
            print(__doc__, file=sys.stderr)
            return 2
        return check_scale(argv[1])
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    return check(argv[0])


if __name__ == "__main__":
    sys.exit(main())
