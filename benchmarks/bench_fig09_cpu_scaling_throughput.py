"""Paper figure 9: throughput scalability from 1 to 4 CPUs (best configs).

Expected shape: both servers roughly DOUBLE their stabilized throughput
from the uniprocessor to the 4-way SMP (Linux 2.4 / JVM-era SMP
efficiency), and the two servers' SMP values sit in the same range.
"""

def test_figure_9_cpu_scaling_throughput(regenerate):
    nio, httpd = regenerate("figure_9")

    # Compare where both systems are stabilized (the top of the sweep),
    # as the paper does: "the throughput obtained by both servers on the
    # SMP environment doubles the value obtained on the uniprocessor
    # when it is stabilized".
    for fig in (nio, httpd):
        up = next(s for s in fig.series if s.label == "UP")
        smp = next(s for s in fig.series if s.label == "SMP")
        factor = max(smp.y) / max(up.y)
        assert 1.5 <= factor <= 2.5, f"{fig.figure_id}: factor={factor:.2f}"

    # The two servers' SMP capacities are in the same range.
    nio_smp = max(next(s for s in nio.series if s.label == "SMP").y)
    httpd_smp = max(next(s for s in httpd.series if s.label == "SMP").y)
    assert 0.8 <= nio_smp / httpd_smp <= 1.25
