"""Unit tests for the command-line interface."""

import json

import pytest

from repro.__main__ import build_parser, main


def test_profiles_command(capsys):
    assert main(["profiles"]) == 0
    out = capsys.readouterr().out
    assert "quick" in out and "standard" in out and "full" in out


def test_run_command_prints_metrics(capsys):
    rc = main([
        "run", "--server", "nio", "--threads", "1",
        "--clients", "20", "--cpu-speed", "0.2",
        "--duration", "5", "--warmup", "3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "replies/s" in out
    assert "conn_ms" in out


def test_run_command_with_stats(capsys):
    rc = main([
        "run", "--server", "httpd", "--threads", "16",
        "--clients", "10", "--duration", "4", "--warmup", "2",
        "--stats",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pool_size" in out


def test_sweep_command(capsys):
    rc = main([
        "sweep", "--server", "nio", "--threads", "1",
        "--clients", "5,15", "--duration", "4", "--warmup", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "nio-1w" in out
    assert out.count("\n") >= 4  # title + header + separator + 2 rows


def test_sweep_with_store_resumes(tmp_path, capsys):
    argv = [
        "sweep", "--server", "nio", "--threads", "1",
        "--clients", "5,15", "--duration", "4", "--warmup", "2",
        "--store", str(tmp_path / "store"),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "2 points executed+stored" in cold
    assert "file population" in cold

    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "2 hits, 0 misses, 0 points executed+stored" in warm
    # The table itself is identical either way.
    table = [ln for ln in cold.splitlines() if ln.strip().startswith("5 ")]
    assert table and all(ln in warm for ln in table)


def test_sweep_adaptive_replication(capsys):
    rc = main([
        "sweep", "--server", "nio", "--threads", "1",
        "--clients", "10", "--duration", "3", "--warmup", "2",
        "--reps", "2:3", "--ci", "5.0",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "adaptive" in out
    assert "±ci95" in out and "reps" in out


def test_sweep_rejects_bad_reps(capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "sweep", "--server", "nio", "--threads", "1",
            "--clients", "10", "--duration", "3", "--warmup", "2",
            "--reps", "nope",
        ])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "bad --reps" in err and "usage:" in err


@pytest.mark.parametrize("argv,message", [
    (["run", "--threads", "0"], "threads must be >= 1"),
    (["run", "--fluid-budget", "-1"], "budget must be >= 1 (or None)"),
    (["run", "--cpu-speed", "0"], "cpu_speed must be positive"),
    (["observe", "--threads", "0"], "threads must be >= 1"),
    (["sweep", "--cpu-speed", "0"], "cpu_speed must be positive"),
], ids=[
    "run-threads-0", "run-fluid-budget-neg", "run-cpu-speed-0",
    "observe-threads-0", "sweep-cpu-speed-0",
])
def test_values_a_spec_rejects_exit_2(argv, message, capsys):
    """A value a spec rejects is a usage error, not a traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "usage:" in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--clients", "10,abc"],
    ["cluster", "--clients", "150,0"],
    ["trace", "--clients", "1e999"],
], ids=["sweep", "cluster", "trace"])
def test_list_valued_clients_flags_reject_bad_counts(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --clients" in err and "usage:" in err


def test_clients_flags_take_k_and_m_suffixes():
    parser = build_parser()
    assert parser.parse_args(["sweep", "--clients", "1k,2.5k"]).clients \
        == [1000, 2500]
    assert parser.parse_args(["cluster", "--clients", "1k"]).clients \
        == [1000]
    assert parser.parse_args(["trace"]).clients == [150]
    assert parser.parse_args(["sweep", "--reps", "3"]).reps == (3, 3)


def test_cache_ls_and_gc(tmp_path, capsys, monkeypatch):
    store_dir = str(tmp_path / "store")
    assert main([
        "sweep", "--server", "nio", "--threads", "1",
        "--clients", "5", "--duration", "3", "--warmup", "2",
        "--store", store_dir,
    ]) == 0
    capsys.readouterr()

    assert main(["cache", "ls", "--store", store_dir]) == 0
    out = capsys.readouterr().out
    assert "nio-1w" in out and "1 entries" in out

    # A different fingerprint sees the entry as stale and gc drops it.
    monkeypatch.setattr(
        "repro.core.store.code_fingerprint", lambda: "some-other-version"
    )
    assert main(["cache", "gc", "--store", store_dir]) == 0
    out = capsys.readouterr().out
    assert "removed 1 stale entries" in out

    assert main(["cache", "ls", "--store", store_dir]) == 0
    assert "empty store" in capsys.readouterr().out


def test_cache_gc_all(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    assert main([
        "sweep", "--server", "nio", "--threads", "1",
        "--clients", "5,15", "--duration", "3", "--warmup", "2",
        "--store", store_dir,
    ]) == 0
    capsys.readouterr()
    assert main(["cache", "gc", "--store", store_dir, "--all"]) == 0
    assert "removed 2 entries" in capsys.readouterr().out


def test_resume_flag_uses_default_store(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([
        "sweep", "--server", "nio", "--threads", "1",
        "--clients", "5", "--duration", "3", "--warmup", "2",
        "--resume",
    ]) == 0
    out = capsys.readouterr().out
    assert ".repro-store" in out and "1 points executed+stored" in out
    assert len(list((tmp_path / ".repro-store").glob("*/*.json"))) == 1


def test_bench_writes_the_kernel_artifact(tmp_path, capsys, monkeypatch):
    from repro.core import perf

    small = {name: 50 for name in perf.KERNEL_EVENTS}
    monkeypatch.setattr(perf, "KERNEL_EVENTS", small)
    out_path = tmp_path / "BENCH_kernel.json"
    assert main([
        "bench", "--skip-figures", "--skip-scale",
        "--kernel-out", str(out_path), "--label", "unit",
    ]) == 0
    assert f"wrote {out_path}" in capsys.readouterr().out
    report = json.loads(out_path.read_text())
    assert report["schema"] == "repro-bench-kernel/6"
    assert report["label"] == "unit"
    assert list(report["benchmarks"]) == [
        "timeout_chain", "cpu_bursts", "link_transmissions",
        "timed_wait_storm",
    ]
    for row in report["benchmarks"].values():
        assert row["events"] == 50 and row["events_per_second"] > 0


def test_bench_jobs_default_to_one_worker_per_cpu():
    assert build_parser().parse_args(["bench"]).jobs == 0


def test_measure_figures_removes_its_temporary_store(tmp_path, monkeypatch):
    import tempfile

    from repro.core import perf
    from repro.core.figures import FigureRunner

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(FigureRunner, "run_figures", lambda self, names: [])
    report = perf.measure_figures(jobs=1)
    assert report["store"]["dir"] is None
    assert list(tmp_path.iterdir()) == []


def test_figure_rejects_out_of_range(capsys):
    assert main(["figure", "11"]) == 2


def test_parser_rejects_unknown_server():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--server", "iis"])


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_observe_command_report(capsys):
    rc = main([
        "observe", "--server", "httpd", "--threads", "16",
        "--clients", "30", "--cpu-speed", "0.5",
        "--duration", "5", "--warmup", "3",
        "--slowest", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "CPU seconds by phase" in out
    assert "req_service" in out
    assert "queue-wait vs service breakdown" in out
    assert "includes failed conns" in out
    assert "slowest connections" in out


def test_observe_command_writes_exports(tmp_path, capsys):
    spans = tmp_path / "spans.jsonl"
    chrome = tmp_path / "trace.json"
    rc = main([
        "observe", "--server", "nio", "--threads", "1",
        "--clients", "20", "--cpu-speed", "0.2",
        "--duration", "4", "--warmup", "2",
        "--spans", str(spans), "--chrome", str(chrome),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote" in out

    from repro.obs import spans_from_jsonl
    parsed = spans_from_jsonl(spans.read_text())
    assert len(parsed) > 0
    assert all(s.status is not None for s in parsed)

    import json
    trace = json.loads(chrome.read_text())
    assert trace["traceEvents"]
    assert any(e["ph"] == "X" for e in trace["traceEvents"])
