"""Paper figure 1: throughput comparison on a uniprocessor system.

Regenerates fig 1(a) — the nio server with 1/4/8 worker threads — and
fig 1(b) — httpd2 with 512/896/4096/6000 pool threads — on the 1 Gbit,
1-CPU scenario.  Expected shape: httpd scales roughly linearly with load;
nio's best configurations reach a comparable peak with 1-2 threads.
"""


def test_figure_1_up_throughput(regenerate):
    nio, httpd = regenerate("figure_1")
    assert len(nio.series) == 3
    assert len(httpd.series) == 4

    # Shape check: the best nio config reaches the same range as the best
    # httpd config (the paper's headline claim) — within 15%.
    nio_peak = max(max(s.y) for s in nio.series)
    httpd_4096 = next(s for s in httpd.series if s.label.startswith("4096"))
    assert nio_peak >= 0.85 * max(httpd_4096.y)

    # Throughput grows with offered load in the under-loaded region.
    for series in nio.series + httpd.series:
        assert series.y[1] > series.y[0]
