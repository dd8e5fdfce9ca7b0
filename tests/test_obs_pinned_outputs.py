"""Observed outputs pinned byte for byte.

Two small observed runs — one SUT with SYN drops and idle reaps, one
cluster under a flash crowd — render every span and trace export, report
and summary, and compare each output's sha256 with a pinned digest.  How
spans and traces store their marks and bounds is free to change; what
they export, render and sum to is not.  A changed digest means an
observed output changed: regenerate the pins only with a change that
means to change the output, and say so.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.cluster.scenarios import flash_point, straggler_cluster
from repro.cluster.spec import CacheSpec
from repro.core import ServerSpec, WorkloadSpec
from repro.core.experiment import Experiment
from repro.obs import (
    attribution_summary,
    format_phase_table,
    format_registry_table,
    render_waterfall,
    spans_to_chrome_trace,
    spans_to_jsonl,
    traces_to_chrome_trace,
    traces_to_jsonl,
)
from repro.obs.report import render_slowest
from repro.osmodel import MachineSpec


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _span_outputs(recorder):
    return {
        "spans_jsonl": spans_to_jsonl(recorder.spans),
        "spans_chrome": json.dumps(
            spans_to_chrome_trace(recorder.spans), sort_keys=True
        ),
        "slowest": render_slowest(recorder),
        "registry": format_registry_table(recorder.registry),
        "phases": format_phase_table(recorder.registry),
    }


def _series_outputs(series):
    return {
        "rates": {name: series.rate_series(name) for name in series.counters},
        "p50": {name: series.quantile_series(name, 50) for name in series.hists},
        "p99": {name: series.quantile_series(name, 99) for name in series.hists},
    }


def _sut_outputs():
    # A 4-slot backlog drops SYNs; a 2 s idle timeout reaps keep-alive
    # connections, and clients that send on one are reset.
    experiment = Experiment(
        server=ServerSpec(
            "httpd", 8, backlog=4, idle_timeout=2.0, observe=True
        ),
        workload=WorkloadSpec(clients=80, duration=8.0, warmup=4.0),
        machine=MachineSpec(cpus=1),
        seed=7,
    )
    stats = experiment.run().server_stats
    assert stats["syns_dropped"] > 0 and stats["idle_reaps"] > 0
    out = _span_outputs(experiment.recorder)
    out["profile"] = experiment.profiler.table()
    return out


def _cluster_outputs():
    cluster = dataclasses.replace(
        straggler_cluster(
            policy="least_connections",
            cache=CacheSpec(capacity_bytes=32 << 20),
        ),
        observe=True,
    )
    experiment = flash_point(
        cluster, clients=32, surge_clients=80,
        duration=3.0, warmup=1.5, seed=7,
    ).experiment()
    experiment.run()
    telemetry = experiment.telemetry
    tracer = telemetry.tracer
    assert {t.rid for t in tracer.traces} >= {"cache", "r0", "r1", "r2"}
    out = _span_outputs(experiment.recorder)
    out.update(
        traces_jsonl=traces_to_jsonl(tracer.traces),
        traces_chrome=json.dumps(
            traces_to_chrome_trace(tracer.traces), sort_keys=True
        ),
        waterfall=render_waterfall(tracer.slowest(1)[0]),
        attribution=json.dumps(
            attribution_summary(tracer.traces), sort_keys=True
        ),
        telemetry_stats=json.dumps(telemetry.stats(), sort_keys=True),
        series=json.dumps(
            {
                "cluster": _series_outputs(telemetry.series),
                "tiers": {
                    name: _series_outputs(series)
                    for name, series in telemetry.tier_series.items()
                },
            },
            sort_keys=True,
        ),
    )
    return out


PINNED = {
    "sut": (_sut_outputs, {
        "phases": "3a8489220b6554d554b5c8591f2aeda7cd16cfd9a5851d493164ada2ba577dcc",
        "profile": "1af4a1ee1c76d05d29783e30aca573a3825da1e6918b4ea58767cde9f9b9f252",
        "registry": "4a644602e342944c5beade9929ebfed80add7b3139e8a9791782059a12b68fa5",
        "slowest": "e770016ade122d2abbdb38e1a0d0923ff229e2d1a4f83597976dc2559d5adcec",
        "spans_chrome": "fd43cd77df4c03749e1a36f2064604e046084f8947f6f8243bd5f52bc1594d60",
        "spans_jsonl": "f1a837ac0629d9037d9def804ea2ecb5e3c86728d69e5b54faa261930ab29d6c",
    }),
    "cluster-flash": (_cluster_outputs, {
        "attribution": "9ee417e76c5bf603025424102a20b9650828a10e7b8b3175d90f8e30078bc1db",
        "phases": "cd03e44a0d4ab6dec0e2ae82751e6f15a6d0f57b603b029b8bbf4a2fa1496a93",
        "registry": "48c3fc3ad6f391a0d308b724fb4b2fb79e219cee41e05312f84de345d19493de",
        "series": "9d6edff6706ae64ec5bb189dfeef96932e05a905077284e49d4c1488aa4b652c",
        "slowest": "bc0e88c5a25c9c62c21a7541d77a5f1ea20db8a964e6a087e25d3d67a53d492c",
        "spans_chrome": "29b7aca9e6d6fda0076d6daf3cb376c31de13e1f71b7d3108a887f4c4284be87",
        "spans_jsonl": "ea6da35914fb3f7fa9ea244520b291b2d3d57eee7f74373f94c7883ce339d58f",
        "telemetry_stats": "322d57962dc920eb584130f47b763b6d48611f69655dfbeb9e88ad9f158d9ff8",
        "traces_chrome": "195a5fedcaf5ec89a0201702d78b7357b098a025daef177f41c1d5e3289721c9",
        "traces_jsonl": "233198bd509bdf4aef0c4bed8edaa2c0e9dea6582aa9f8c56381a0cc4ce84f04",
        "waterfall": "6e3f57fec6eff6a23e5ebf55358d9c5dbfe040aece347576759bd689f8b29609",
    }),
}


@pytest.mark.parametrize("label", sorted(PINNED))
def test_observed_outputs_are_pinned(label):
    run, expected = PINNED[label]
    assert {name: _sha(text) for name, text in run().items()} == expected
