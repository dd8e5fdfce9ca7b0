"""Unit tests for the content-addressed run store (repro.core.store).

The store's contract: keys are a *stable* function of (spec, code
fingerprint) — identical across processes, interpreter restarts and
``PYTHONHASHSEED`` values — and entries survive any crash intact or not
at all (atomic writes; corrupt files read as misses).
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.core import (
    SMP_GIGABIT,
    UP_FAST_ETHERNET,
    UP_GIGABIT,
    PointSpec,
    RunStore,
    ServerSpec,
    WorkloadSpec,
    code_fingerprint,
    run_point,
    spec_digest,
)
from repro.core.store import canonical, metrics_from_dict, metrics_to_dict
from repro.overload import LIFO, CoDelShedder, OverloadControl, TokenBucket


def _spec(clients=10, seed=42, server=None, scenario=UP_GIGABIT):
    return PointSpec(
        server=server or ServerSpec.nio(1),
        workload=WorkloadSpec(clients=clients, duration=1.0, warmup=1.0),
        machine=scenario.machine,
        network=scenario.network,
        seed=seed,
    )


# -- digest stability ---------------------------------------------------------

def test_digest_is_deterministic_within_process():
    assert spec_digest(_spec(), "fp") == spec_digest(_spec(), "fp")


def test_digest_distinguishes_every_axis():
    base = spec_digest(_spec(), "fp")
    assert spec_digest(_spec(clients=20), "fp") != base
    assert spec_digest(_spec(seed=7), "fp") != base
    assert spec_digest(_spec(server=ServerSpec.httpd(64)), "fp") != base
    assert spec_digest(_spec(scenario=SMP_GIGABIT), "fp") != base
    assert spec_digest(_spec(scenario=UP_FAST_ETHERNET), "fp") != base
    assert spec_digest(_spec(), "other-fp") != base


def test_digest_covers_overload_config_not_state():
    bucket = OverloadControl(admission=TokenBucket(rate=500.0, burst=32.0))
    spec = _spec(server=ServerSpec("httpd", 64, overload=bucket))
    before = spec_digest(spec, "fp")
    # Run-time counters must not change the address...
    bucket.admission.admitted = 99
    bucket.admission._tokens = 0.0
    assert spec_digest(spec, "fp") == before
    # ...but configuration must.
    other = OverloadControl(admission=TokenBucket(rate=600.0, burst=32.0))
    assert spec_digest(
        _spec(server=ServerSpec("httpd", 64, overload=other)), "fp"
    ) != before


def test_digest_handles_codel_lifo():
    control = OverloadControl(
        admission=CoDelShedder(target=0.05, interval=0.5), discipline=LIFO
    )
    spec = _spec(server=ServerSpec("httpd", 64, overload=control))
    assert spec_digest(spec, "fp") == spec_digest(spec, "fp")


def test_canonical_rejects_unknown_objects():
    class Mystery:
        pass

    with pytest.raises(TypeError, match="canonicalise"):
        canonical(Mystery())


def test_digest_stable_across_processes_and_hash_seeds():
    """The satellite pin: keys survive interpreter restarts with
    different PYTHONHASHSEED values, so resume works across runs."""
    program = (
        "from repro.core import (PointSpec, ServerSpec, WorkloadSpec, "
        "UP_GIGABIT, spec_digest)\n"
        "from repro.overload import OverloadControl, TokenBucket, LIFO\n"
        "spec = PointSpec(\n"
        "    server=ServerSpec('httpd', 64, overload=OverloadControl(\n"
        "        admission=TokenBucket(rate=520.0, burst=64.0),"
        " discipline=LIFO)),\n"
        "    workload=WorkloadSpec(clients=10, duration=1.0, warmup=1.0),\n"
        "    machine=UP_GIGABIT.machine, network=UP_GIGABIT.network,\n"
        "    seed=42)\n"
        "print(spec_digest(spec, 'pinned-fp'))\n"
    )
    digests = set()
    for hash_seed in ("0", "1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                os.path.join(os.path.dirname(__file__), "..", "src"),
                env.get("PYTHONPATH", ""),
            ) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, env=env, check=True,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1
    # And the subprocess digest matches this process's.
    assert digests == {
        spec_digest(
            _spec(server=ServerSpec("httpd", 64, overload=OverloadControl(
                admission=TokenBucket(rate=520.0, burst=64.0),
                discipline=LIFO,
            ))),
            "pinned-fp",
        )
    }


# -- code fingerprint ---------------------------------------------------------

def test_code_fingerprint_env_override(tmp_path, monkeypatch):
    # No environment variable overrides the fingerprint; only the
    # RunStore constructor pins one.
    monkeypatch.setenv("REPRO_FINGERPRINT", "forced")
    real = code_fingerprint(refresh=True)
    assert real != "forced" and len(real) == 16
    assert code_fingerprint() == real  # memoized
    assert RunStore(str(tmp_path)).fingerprint == real
    assert RunStore(str(tmp_path), fingerprint="forced").fingerprint == "forced"


# -- RunMetrics round trip ----------------------------------------------------

def test_metrics_json_round_trip_is_equal():
    metrics = run_point(_spec(clients=15))
    data = json.loads(json.dumps(metrics_to_dict(metrics)))
    assert metrics_from_dict(data) == metrics


# -- store behaviour ----------------------------------------------------------

def test_put_get_and_counters(tmp_path):
    store = RunStore(str(tmp_path), fingerprint="fp")
    spec = _spec()
    key = store.key_for(spec)
    assert store.get(key) is None
    metrics = run_point(spec)
    store.put(key, metrics, provenance=spec.provenance())
    assert store.get(key) == metrics
    assert store.stats() == {"hits": 1, "misses": 1, "puts": 1}
    assert store.contains(key)
    assert len(store) == 1


def test_fingerprint_mismatch_is_a_miss(tmp_path):
    spec = _spec()
    old = RunStore(str(tmp_path), fingerprint="v1")
    old.put(old.key_for(spec), run_point(spec))
    new = RunStore(str(tmp_path), fingerprint="v2")
    # Same file on disk, but the fingerprint stamped inside is stale.
    assert new.get(old.key_for(spec)) is None


def test_corrupt_entry_reads_as_miss(tmp_path):
    store = RunStore(str(tmp_path), fingerprint="fp")
    spec = _spec()
    key = store.key_for(spec)
    store.put(key, run_point(spec))
    path = store.path_for(key)
    with open(path, "w") as fh:
        fh.write('{"schema": "repro-runstore/1", "metrics": {truncated')
    assert store.get(key) is None
    # ...and the bad entry is replaceable.
    store.put(key, run_point(spec))
    assert store.get(key) is not None


def test_atomic_write_leaves_no_temp_files(tmp_path):
    store = RunStore(str(tmp_path), fingerprint="fp")
    spec = _spec()
    store.put(store.key_for(spec), run_point(spec))
    leftovers = [
        name
        for _dir, _sub, files in os.walk(tmp_path)
        for name in files
        if name.endswith(".tmp")
    ]
    assert leftovers == []


def test_ls_and_gc(tmp_path):
    spec = _spec()
    v1 = RunStore(str(tmp_path), fingerprint="v1")
    v1.put(v1.key_for(spec), run_point(spec), provenance=spec.provenance())
    v2 = RunStore(str(tmp_path), fingerprint="v2")
    v2.put(v2.key_for(spec), run_point(spec), provenance=spec.provenance())

    rows = v2.ls()
    assert len(rows) == 2
    assert sorted(r["current"] for r in rows) == [False, True]
    assert {r["server"] for r in rows} == {"nio-1w"}

    # gc drops only the stale (v1) entry...
    assert v2.gc() == 1
    assert len(v2) == 1 and v2.contains(v2.key_for(spec))
    # ...and gc(all) empties the store.
    assert v2.gc(all_entries=True) == 1
    assert len(v2) == 0


def test_provenance_recorded(tmp_path):
    store = RunStore(str(tmp_path), fingerprint="fp")
    spec = _spec(clients=25)
    store.put(store.key_for(spec), run_point(spec),
              provenance=spec.provenance())
    [(_path, payload)] = list(store.entries())
    assert payload["provenance"]["server"] == "nio-1w"
    assert payload["provenance"]["clients"] == 25
    assert payload["provenance"]["scenario"] == "1cpu-1Gbps"
    assert payload["key"] == store.key_for(spec)


def test_spec_replace_changes_seed_key():
    spec = _spec(seed=42)
    replica = dataclasses.replace(spec, seed=43)
    assert spec_digest(spec, "fp") != spec_digest(replica, "fp")
