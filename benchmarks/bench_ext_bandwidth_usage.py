"""Extended-report figure: bandwidth usage of the best configurations.

The paper (section 4.1) verified the 1 Gbit tests were never
bandwidth-bounded: observed usage stayed under 40 MB/s, and usage is
linear in achieved throughput.  This bench reuses the figure-1 sweeps.
"""

import numpy as np


def test_extension_bandwidth_usage(regenerate, figure_runner):
    (fig,) = regenerate("extension_bandwidth_usage")
    for series in fig.series:
        # Paper: "the observed bandwidth usage was always under 40 MB/s".
        assert max(series.y) < 60.0

    # Linear relation between throughput and bandwidth: correlate the
    # nio bandwidth series against its throughput series.
    from repro.core import ServerSpec, UP_GIGABIT

    sweep = figure_runner.sweep(ServerSpec.nio(1), UP_GIGABIT)
    thr = np.asarray(sweep.throughputs)
    bw = np.asarray([p.bandwidth_mbytes_per_s for p in sweep.points])
    corr = np.corrcoef(thr, bw)[0, 1]
    assert corr > 0.98
