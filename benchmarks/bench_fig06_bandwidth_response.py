"""Paper figure 6: response time under the three network configurations.

Expected shape: when bandwidth is the bottleneck, the two servers'
response times track each other (the network dictates them); on 1 Gbit
(CPU-bounded) they diverge, nio above httpd (whose mean excludes its
many error victims).
"""


def test_figure_6_bandwidth_response(regenerate):
    (fig,) = regenerate("figure_6")
    by_label = {s.label: s for s in fig.series}

    nio_100 = by_label["NIO 100Mbps"]
    httpd_100 = by_label["Httpd 100Mbps"]
    nio_1g = by_label["NIO 1Gbit"]
    httpd_1g = by_label["Httpd 1Gbit"]

    # Bandwidth-bounded: response times rise for both servers as the link
    # saturates (queueing at the wire dominates both architectures).
    assert nio_100.y[-1] > nio_100.y[0]
    assert httpd_100.y[-1] > httpd_100.y[0]

    # CPU-bounded: nio's measured response time exceeds httpd's at the
    # saturated end (httperf excludes httpd's timeout victims).
    assert nio_1g.y[-1] > httpd_1g.y[-1]
