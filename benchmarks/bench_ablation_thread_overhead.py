"""Ablation A1: what thread-management overhead costs the big pools.

DESIGN.md attributes part of httpd's big-pool degradation to per-thread
scheduler/memory overhead.  This ablation re-runs the 4096/6000-thread
pools with that overhead disabled: their peaks should recover, confirming
the mechanism (not the workload) produces the effect.
"""


def test_ablation_thread_overhead(regenerate):
    (fig,) = regenerate("ablation_thread_overhead")
    by_label = {s.label: s for s in fig.series}
    with_ovh = max(by_label["6000t"].y)
    without_ovh = max(by_label["6000t no-ovh"].y)
    # Removing the overhead recovers measurable peak throughput.
    assert without_ovh > with_ovh * 1.02
