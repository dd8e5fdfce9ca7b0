"""Paper figure 10: response-time scalability from 1 to 4 CPUs.

Expected shape: at loads that saturate the uniprocessor, the SMP response
time is significantly lower for both servers (more capacity, shorter
queues).
"""


def test_figure_10_cpu_scaling_response(regenerate):
    figs = regenerate("figure_10")

    for fig in figs:
        up = next(s for s in fig.series if s.label == "UP")
        smp = next(s for s in fig.series if s.label == "SMP")
        # Compare at the highest common load: SMP must be markedly lower.
        assert smp.y[-1] < up.y[-1]
        # And the improvement is substantial where UP is saturated.
        assert smp.y[-1] < 0.7 * up.y[-1] + 1.0
