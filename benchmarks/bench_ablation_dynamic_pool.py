"""Ablation A5: Apache's dynamic spare-thread pool vs a static pool.

A dynamic pool (Min/MaxSpareThreads) only pays stack memory and
scheduler overhead for the threads the load actually needs, so at low
load it should match the static pool's throughput while running far
fewer threads; at high load it converges to the static configuration.
"""


def test_ablation_dynamic_pool(regenerate):
    (fig,) = regenerate("ablation_dynamic_pool")
    by_label = {s.label: s for s in fig.series}
    static = by_label["static 4096"]
    dynamic = by_label["dynamic (max 4096)"]
    # Low-load equivalence.
    assert dynamic.y[0] == static.y[0] or (
        abs(dynamic.y[0] - static.y[0]) / max(static.y[0], 1.0) < 0.1
    )
    # High-load: the dynamic pool reaches the same capacity class.
    assert dynamic.y[-1] > 0.8 * static.y[-1]
