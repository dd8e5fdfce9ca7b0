"""The CI gates in ``benchmarks/check_perf_floor.py``: kernel floors and
the scale sweep."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_perf_floor.py"


def load_checker():
    spec = importlib.util.spec_from_file_location("check_perf_floor", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def floor_report(tmp_path, scale=None, drop=None):
    """A pytest-benchmark report with every floored bench at its floor
    rate (times ``scale[key]`` where given), leaving out ``drop``."""
    floors = json.loads((SCRIPT.parent / "perf_floor.json").read_text())
    events = 1_000
    benches = [
        {
            "name": f"test_kernel[{key}]",
            "extra_info": {"bench": key, "events": events},
            "stats": {"min": events / (floor * (scale or {}).get(key, 1.0))},
        }
        for key, floor in floors["floors"].items()
        if key != drop
    ]
    # Not a floored bench: no extra_info, and a rate far below any floor.
    benches.append({"name": "test_other", "stats": {"min": 1e9}})
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"benchmarks": benches}))
    return str(path)


def test_floor_check_passes_at_the_floors_and_ignores_other_entries(tmp_path):
    checker = load_checker()
    assert checker.main([floor_report(tmp_path)]) == 0


def test_floor_check_fails_a_bench_below_seventy_percent(tmp_path):
    checker = load_checker()
    report = floor_report(tmp_path, scale={"cpu_bursts": 0.69})
    assert checker.main([report]) == 1
    report = floor_report(tmp_path, scale={"cpu_bursts": 0.71})
    assert checker.main([report]) == 0


def test_floor_check_rejects_a_report_missing_a_floored_bench(tmp_path):
    checker = load_checker()
    assert checker.main([floor_report(tmp_path, drop="scale_smoke")]) == 2


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


def test_scale_gate_fails_growth_above_five_percent(tmp_path):
    checker = load_checker()
    report = scale_report(tmp_path, [
        (100_000, 4.3, 83 * MB),
        (1_000_000, 4.5, 89 * MB),  # 1.07x the 100k point
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
