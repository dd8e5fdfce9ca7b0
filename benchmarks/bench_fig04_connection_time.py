"""Paper figure 4: connection-establishment time, nio vs httpd pools.

Expected shape: nio stays flat (sub-millisecond) at every load; httpd-896
blows up when clients exceed the pool; httpd-4096/6000 degrade only near
their own limits (or not at all within the swept range).
"""


def test_figure_4_connection_time(regenerate):
    (fig,) = regenerate("figure_4")
    nio = next(s for s in fig.series if s.label.startswith("NIO"))
    httpd_896 = next(s for s in fig.series if "896" in s.label)

    # nio connection time below 1 ms at every measured load (paper: "has
    # been always below 1").
    assert all(v < 1.0 for v in nio.y)

    # httpd-896 degrades by orders of magnitude once clients > threads.
    assert max(httpd_896.y) > 100 * max(nio.y)
