"""Paper figure 5: throughput under 100 Mbit / 200 Mbit / 1 Gbit links.

Expected shape: on the bandwidth-bounded configurations both servers climb
linearly to the bandwidth ceiling, then flatten — with nio at or slightly
above httpd at the plateau (httpd's resets add network load).  On 1 Gbit,
the CPU is the bottleneck and both reach far higher reply rates.
"""

from repro.core import find_crossover


def test_figure_5_bandwidth_throughput(regenerate):
    (fig,) = regenerate("figure_5")
    by_label = {s.label: s for s in fig.series}

    nio_100 = by_label["NIO 100Mbps"]
    nio_200 = by_label["NIO 200Mbps"]
    nio_1g = by_label["NIO 1Gbit"]
    httpd_100 = by_label["Httpd 100Mbps"]

    # The bandwidth ceilings order the plateaus: 100M < 200M < 1G.
    assert max(nio_100.y) < max(nio_200.y) < max(nio_1g.y)

    # 100 Mbit plateau sits near the link's payload capacity (~12 MB/s /
    # mean transfer ~16 KB => a few hundred replies/s), far below 1 Gbit.
    assert max(nio_100.y) < 0.5 * max(nio_1g.y)

    # At the saturated end, nio >= httpd on the bandwidth-bounded link.
    assert nio_100.y[-1] >= 0.95 * httpd_100.y[-1]

    # A crossover or parity exists: below saturation they are equal, so
    # any advantage appears only at/after the knee.
    knee = find_crossover(nio_100.x, nio_100.y, httpd_100.y)
    assert knee is None or knee > nio_100.x[0]
