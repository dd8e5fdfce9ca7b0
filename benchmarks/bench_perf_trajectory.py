"""Emit the performance-trajectory artifacts BENCH_kernel.json,
BENCH_scale.json and BENCH_figures.json (see EXPERIMENTS.md for the
format).

Run as a script from the repo root::

    PYTHONPATH=src python benchmarks/bench_perf_trajectory.py \\
        --label "my-commit" --jobs 0

or via the CLI: ``python -m repro bench``.  Both delegate to
:mod:`repro.core.perf`; this wrapper just defaults the output paths to
the repo root so the artifacts land next to the other BENCH files.

When collected by pytest (``pytest benchmarks/bench_perf_trajectory.py``)
only the kernel half runs, as a cheap smoke check that the measurement
machinery works and clears the checked-in floor
(``benchmarks/perf_floor.json``, enforced properly by
``benchmarks/check_perf_floor.py`` in CI).
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_perf_trajectory_kernel_smoke():
    """measure_kernel() produces a well-formed artifact with sane rates."""
    from repro.core.perf import KERNEL_BENCHES, measure_kernel

    report = measure_kernel(n=2_000, rounds=1, label="smoke")
    assert report["schema"] == "repro-bench-kernel/4"
    assert set(report["benchmarks"]) == set(KERNEL_BENCHES)
    for name, row in report["benchmarks"].items():
        assert row["events_per_second"] > 0, name
        assert row["events"] > 0, name


def main(argv=None) -> int:
    from repro.core import perf

    argv = list(sys.argv[1:] if argv is None else argv)
    if not any(a.startswith("--kernel-out") for a in argv):
        argv += ["--kernel-out", str(REPO_ROOT / "BENCH_kernel.json")]
    if not any(a.startswith("--figures-out") for a in argv):
        argv += ["--figures-out", str(REPO_ROOT / "BENCH_figures.json")]
    if not any(a.startswith("--scale-out") for a in argv):
        argv += ["--scale-out", str(REPO_ROOT / "BENCH_scale.json")]
    return perf.main(argv)


if __name__ == "__main__":
    sys.exit(main())
