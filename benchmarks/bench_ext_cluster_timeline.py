"""Extension: the observed cluster timeline — series, bands, SLO alerts.

Regenerates the ``extension_cluster_timeline`` figure: one observed run
of the straggler lc+cache cluster with a flash-crowd surge landing while
replica r0 rolls through drain/down/warming.  The telemetry mount turns
the run into windowed time series (per-tier p99, throughput, shed rate,
cache hit rate), replica availability bands, and burn-rate SLO alerts —
all deterministic functions of the run spec.

Asserted below (the ISSUE's acceptance bar for the timeline figure):

(a) both subfigures regenerate with their per-tier / overlay series;
(b) the availability SLO's burn-rate alert fires at a deterministic
    sim time, recorded in the figure notes ("fired at");
(c) r0's state series actually walks the restart ladder (up -> draining
    -> down -> warming) inside the window; and
(d) the runner stashes a Chrome-trace sample of the slowest requests,
    written to ``benchmarks/results/`` as a CI artifact.
"""

import json
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def test_extension_cluster_timeline(regenerate, figure_runner):
    tiers, overlay = regenerate("extension_cluster_timeline")
    assert tiers.figure_id == "extCTa"
    assert overlay.figure_id == "extCTb"

    # (a) Per-tier p99: the cluster aggregate plus every replica and the
    # cache tier, one value per time bin.
    labels = {s.label for s in tiers.series}
    assert {"cluster", "cache", "r0", "r1", "r2"} <= labels
    n_bins = len(tiers.series[0].x)
    assert n_bins > 0
    assert all(len(s.y) == n_bins for s in tiers.series)

    # (b) The availability SLO fires deterministically; both notes pin
    # the firing time.
    assert "fired at" in tiers.notes
    assert "fired at" in overlay.notes

    # (c) The restarted replica's state series walks the whole ladder:
    # 3=up, 1=draining, 0=down, 2=warming.
    states = {s.label: s.y for s in overlay.series}["r0 state"]
    assert {3.0, 2.0, 1.0, 0.0} <= set(states)

    # (d) The Chrome-trace sample of the slowest requests is stashed on
    # the runner; persist it next to the figure tables for CI upload.
    sample = figure_runner.trace_sample
    assert sample["traceEvents"], "trace sample must contain events"
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "extension_cluster_trace_sample.json"
    out.write_text(json.dumps(sample, indent=1))
