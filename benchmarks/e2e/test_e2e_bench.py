"""Self-tests of the end-to-end benchmark harness.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import math
import textwrap
from pathlib import Path

import calibrate
import compare
import probe
import run
import workloads

SPIN = """
import time

def spin(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass
"""

HANDLER = """
import time

def handler(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        for _ in range(2000):
            pass
        yield
"""

DRIVE = """
def drive(gen):
    for _ in gen:
        pass
"""


def _module(src: Path, relpath: str, body: str):
    path = src / "repro" / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body))
    spec = importlib.util.spec_from_file_location(relpath.replace("/", "_")[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _shares(src: Path, fn, *args) -> dict:
    sampler = probe.LayerSampler(str(src))
    sampler.start()
    try:
        fn(*args)
    finally:
        sampler.stop()
    total = sum(sampler.samples.values())
    assert total > 0
    return {layer: count / total for layer, count in sampler.samples.items()}


def test_busy_loop_is_sampled_to_its_layer(tmp_path):
    src = tmp_path / "src"
    spin = _module(src, "net/busy.py", SPIN)
    handler = _module(src, "servers/handler.py", HANDLER)
    drive = _module(src, "sim/loop.py", DRIVE)

    assert _shares(src, spin.spin, 0.4).get("net", 0.0) > 0.9
    # A generator body resumed by the kernel is charged to its own layer,
    # not to the loop that resumes it.
    shares = _shares(src, drive.drive, handler.handler(0.4))
    assert shares.get("servers", 0.0) > 0.8
    assert "other" not in shares


def test_perturbed_row_fails_the_digest_check():
    experiment = workloads.SMOKE.build(42)
    row = experiment.run()
    pinned = probe.row_digest(row)
    counts = {"workload.replies": row.replies, "net.syns": 1, "net.accepted": 1,
              "servers.requests_served": row.replies}

    same = {"ok": True, "digest": probe.row_digest(row), "counts": counts}
    run.judge(same, pinned)
    assert same["ok"]

    stats = dict(row.server_stats, tombstones_compacted=99)
    bookkeeping = dataclasses.replace(row, server_stats=stats)
    assert probe.row_digest(bookkeeping) == pinned

    # One ulp on one field is enough.
    nudged = math.nextafter(row.response_time_mean, math.inf)
    perturbed = dataclasses.replace(row, response_time_mean=nudged)
    rep = {"ok": True, "digest": probe.row_digest(perturbed), "counts": counts}
    run.judge(rep, pinned)
    assert not rep["ok"] and "digest" in rep["error"]


def test_results_file_has_every_benchmark_metric_with_its_unit(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_NO_WHEEL", "1")
    out = tmp_path / "results.json"
    assert run.main(["--workload", "smoke", "--reps", "2", "--trace", "1",
                     "--out", str(out)]) == 0
    results = json.loads(out.read_text())
    smoke = results["workloads"]["smoke"]
    # 2 untraced + 1 traced repetition, and set-up-only children up to 5 set-ups.
    assert smoke["failed"] == 0 and smoke["attempted"] == 2 + 1 + 3
    assert smoke["metrics"]["setup_s"]["n"] == run.MIN_SETUPS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert smoke["metrics"][metric["name"]]["unit"] == metric["unit"], metric["name"]

    headline = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(headline) == {"correct", "attempted", "failed", "metrics"}
    assert set(headline["metrics"]) == {m["name"] for m in spec["per_layer"]}

    prov = results["provenance"]
    assert prov["repro_env_reached_child"] is False
    assert prov["wheel"] == [True]
    assert prov["nproc"] >= 1 and prov["python"]


def test_counts_repeat_exactly_across_two_runs():
    first, second = (run.repetition("smoke", 7, traced=False) for _ in range(2))
    assert first["ok"] and second["ok"]
    assert first["digest"] == second["digest"]
    del first["counts"]["sim.events_per_s"], second["counts"]["sim.events_per_s"]
    assert first["counts"] == second["counts"]
    assert first["counts"]["sim.events"] > 0


def test_speed_comes_from_the_chunks_inside_the_window():
    ref = calibrate.REFERENCE_CHUNK_S
    # (start, end) pairs: two chunks at reference speed, then two at half.
    chunks = [(0.0, ref), (1.0, 1.0 + ref), (2.0, 2.0 + 2 * ref), (3.0, 3.0 + 2 * ref)]
    assert math.isclose(calibrate.speed(chunks, 0.0, 1.5), 1.0)
    assert math.isclose(calibrate.speed(chunks, 1.5, 4.0), 0.5)
    assert calibrate.speed(chunks, 5.0, 6.0) is None
    start, end = calibrate.chunk()
    assert end > start


def test_compare_verdicts():
    def m(*values):
        return run.summarize(list(values), "s")

    base = m(10.0, 10.1, 10.2, 9.9, 10.0)
    assert compare.verdict(base, m(10.1, 10.0, 10.2, 10.1, 9.9), 0.1, "lower") == "same"
    assert compare.verdict(base, m(12.0, 12.1, 12.2, 11.9, 12.0), 0.1, "lower") == "worse"
    assert compare.verdict(base, m(8.0, 8.1, 8.2, 7.9, 8.0), 0.1, "lower") == "better"
    assert compare.verdict(base, m(6.0, 14.0, 9.0, 12.0, 8.0), 0.1, "lower") == "unresolved"
