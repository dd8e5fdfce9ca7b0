"""CLI tests for the ``cluster`` subcommand and age-based cache gc."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.__main__ import main, parse_age


# -- age parsing --------------------------------------------------------------

def test_parse_age_units():
    assert parse_age("90") == 90.0
    assert parse_age("90s") == 90.0
    assert parse_age("15m") == 900.0
    assert parse_age("24h") == 86400.0
    assert parse_age("7d") == 7 * 86400.0
    assert parse_age(" 2H ") == 7200.0


def test_parse_age_rejects_garbage():
    for bad in ("", "soon", "5w", "-3"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_age(bad)


# -- cluster subcommand -------------------------------------------------------

def test_cluster_steady_sweep(capsys):
    rc = main([
        "cluster", "--replicas", "2", "--cpu-speed", "0.3",
        "--clients", "8,16", "--duration", "3", "--warmup", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "2xnio-1w|rr" in out
    assert "replies/s" in out


def test_cluster_stats_prints_per_replica_rows(capsys):
    rc = main([
        "cluster", "--replicas", "2", "--cpu-speed", "0.3",
        "--policy", "least_connections",
        "--clients", "10", "--duration", "3", "--warmup", "2",
        "--stats",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "r0" in out and "r1" in out
    assert "lb.policy" in out
    assert "least_connections" in out
    assert "tombstones_compacted" in out


def test_cluster_heterogeneous_mix(capsys):
    rc = main([
        "cluster", "--mix", "nio:1,httpd:16@0.5",
        "--clients", "10", "--duration", "3", "--warmup", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "nio-1w" in out and "httpd" in out


def test_cluster_cache_sweep_exits_early(capsys):
    rc = main([
        "cluster", "--cache-sweep", "1,8,64", "--seed", "42",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hit" in out.lower()
    assert out.count("%") >= 3 or out.count("0.") >= 3


def test_cluster_restart_scenario(capsys):
    rc = main([
        "cluster", "--replicas", "3", "--cpu-speed", "0.3",
        "--scenario", "restart", "--restart-rid", "r1",
        "--clients", "30", "--duration", "5", "--warmup", "2",
        "--stats",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "restart.picks_after_drain" in out


def test_cluster_rejects_bad_mix(capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "cluster", "--mix", "frobnicator:9",
            "--clients", "5", "--duration", "3", "--warmup", "2",
        ])
    assert exc.value.code == 2
    assert "frobnicator" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,value", [
    ("cluster", "--mix", "nio:x"),
    ("trace", "--mix", "nio:1@0"),
    ("cluster", "--classes", "a:1"),
    ("trace", "--classes", "a:0:8:60:0"),
    ("cluster", "--cache-sweep", "1,x"),
])
def test_cluster_list_flags_reject_bad_values(command, flag, value, capsys):
    """A malformed list flag is a usage error (exit 2), not a traceback."""
    with pytest.raises(SystemExit) as exc:
        main([command, flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["cluster", "--replicas", "0"], "cluster needs at least one replica"),
    (
        ["cluster", "--classes", "a:1:8:60:0;a:2:8:60:0"],
        "duplicate client class names: ['a', 'a']",
    ),
    (
        ["cluster", "--classes", "bots:1:8:60:0:slowloris"],
        "need at least one legitimate client class",
    ),
    (
        ["cluster", "--scenario", "restart", "--restart-rid", "r9"],
        "restart rid 'r9' not in ['r0', 'r1', 'r2']",
    ),
    (
        ["trace", "--scenario", "restart", "--restart-rid", "r9"],
        "restart rid 'r9' not in ['r0', 'r1', 'r2']",
    ),
], ids=[
    "replicas-0", "repeated-class", "only-adversaries", "restart-rid-r9",
    "trace-restart-rid-r9",
])
def test_cluster_values_a_spec_rejects_exit_2(argv, message, capsys):
    """A value the cluster specs reject is a usage error, not a traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "usage:" in err


# -- age-based cache gc -------------------------------------------------------

def _age_entries(store_root, seconds):
    """Rewrite every entry's created timestamp ``seconds`` into the past."""
    import os
    import time

    for dirpath, _dirnames, filenames in os.walk(store_root):
        for name in filenames:
            if not name.endswith(".json"):
                continue
            path = os.path.join(dirpath, name)
            with open(path) as fh:
                payload = json.load(fh)
            payload["created"] = time.time() - seconds
            with open(path, "w") as fh:
                json.dump(payload, fh)


def test_cache_gc_older_than(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    argv = [
        "cluster", "--replicas", "2", "--cpu-speed", "0.3",
        "--clients", "8", "--duration", "3", "--warmup", "2",
        "--store", store_dir,
    ]
    assert main(argv) == 0
    capsys.readouterr()

    # Young entries survive an age-gated gc...
    assert main(["cache", "gc", "--store", store_dir,
                 "--older-than", "1h"]) == 0
    out = capsys.readouterr().out
    assert "removed 0" in out

    # ...but entries older than the cutoff are dropped even though the
    # fingerprint still matches.
    _age_entries(store_dir, seconds=2 * 3600)
    assert main(["cache", "gc", "--store", store_dir,
                 "--older-than", "1h"]) == 0
    out = capsys.readouterr().out
    assert "removed 1" in out
    assert "older than 3600s" in out
