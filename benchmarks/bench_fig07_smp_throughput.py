"""Paper figure 7: throughput comparison on the 4-way SMP system.

Expected shape: nio with 2/3/4 workers performs equivalently (2 is the
paper's pick); httpd with 2048/4096/6000 threads shows 4096 ~ 6000 with
2048 falling behind at high client counts (pool exhaustion).
"""


def test_figure_7_smp_throughput(regenerate):
    nio, httpd = regenerate("figure_7")
    assert len(nio.series) == 3
    assert len(httpd.series) == 3

    # The nio worker counts are within a few percent of each other.
    peaks = [max(s.y) for s in nio.series]
    assert max(peaks) <= 1.10 * min(peaks)

    # httpd-2048 falls behind the larger pools at the top load.
    httpd_2048 = next(s for s in httpd.series if s.label.startswith("2048"))
    httpd_4096 = next(s for s in httpd.series if s.label.startswith("4096"))
    assert httpd_2048.y[-1] < httpd_4096.y[-1]
