"""The CI scale-sweep gate in ``benchmarks/check_perf_floor.py``."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_perf_floor.py"


def load_checker():
    spec = importlib.util.spec_from_file_location("check_perf_floor", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scale_report(tmp_path, points):
    path = tmp_path / "BENCH_scale.json"
    path.write_text(json.dumps({
        "schema": "repro-bench-scale/1",
        "points": [
            {"clients": c, "wall_seconds": wall, "peak_rss_bytes": rss}
            for c, wall, rss in points
        ],
    }))
    return str(path)


MB = 1 << 20


def test_scale_gate_passes_flat_memory(tmp_path):
    checker = load_checker()
    report = scale_report(tmp_path, [
        (100_000, 4.3, 83 * MB),
        (1_000_000, 4.5, 86 * MB),
    ])
    assert checker.main(["--scale", report]) == 0


def test_scale_gate_fails_memory_growing_with_population(tmp_path):
    checker = load_checker()
    report = scale_report(tmp_path, [
        (100_000, 4.3, 83 * MB),
        (1_000_000, 4.5, 92 * MB),  # 1.11x the 100k point
    ])
    assert checker.main(["--scale", report]) == 1


def test_scale_gate_fails_on_time_and_absolute_memory(tmp_path):
    checker = load_checker()
    slow = scale_report(tmp_path, [
        (100_000, 61.0, 83 * MB),
        (1_000_000, 4.5, 83 * MB),
    ])
    assert checker.main(["--scale", slow]) == 1
    huge = scale_report(tmp_path, [
        (100_000, 4.3, 1 << 30),
        (1_000_000, 4.5, 1 << 30),
    ])
    assert checker.main(["--scale", huge]) == 1


def test_scale_gate_rejects_a_sweep_without_both_end_points(tmp_path):
    checker = load_checker()
    report = scale_report(tmp_path, [(100_000, 4.3, 83 * MB)])
    assert checker.main(["--scale", report]) == 2
