"""Ablation A4: shared vs partitioned selectors for the nio server.

The paper's nio server uses one selector whose ready set all workers
drain; later event-loop designs (Netty's event-loop groups) give each
worker its own selector and assign channels round-robin.  At this scale
the two should be equivalent in throughput — the interesting check is
that neither strategy perturbs the architectural properties (zero
resets, flat connection time).
"""


def test_ablation_selector_strategy(regenerate):
    (fig,) = regenerate("ablation_selector_strategy")
    by_label = {s.label: s for s in fig.series}
    shared = by_label["shared selector"]
    partitioned = by_label["partitioned selectors"]
    for a, b in zip(shared.y, partitioned.y):
        if a > 100:  # skip the near-zero low-load points
            assert abs(a - b) / a < 0.10
