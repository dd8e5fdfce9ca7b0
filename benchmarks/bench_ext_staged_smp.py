"""Extension A3: the paper's future-work staged pipeline on SMP.

Runs the SEDA-style staged server and the Flash-style AMPED server next
to the paper's two contenders on the 4-way SMP scenario.  Expected: the
staged pipeline is competitive with nio (it is the paper's proposed
evolution of the same architecture), and every event-driven variant holds
connection times flat.
"""


def test_extension_staged_smp(regenerate):
    (fig,) = regenerate("extension_staged_smp")
    by_label = {s.label: s for s in fig.series}
    staged_peak = max(by_label["staged-2w"].y)
    nio_peak = max(by_label["nio-2w"].y)
    # The staged pipeline is in the same performance class as nio.
    assert staged_peak >= 0.8 * nio_peak
