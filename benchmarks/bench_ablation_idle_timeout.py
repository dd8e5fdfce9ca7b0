"""Ablation A2: the server idle timeout vs connection-reset errors.

The paper explains httpd's reset errors by its 15 s idle timeout meeting
heavy-tailed think times.  Sweeping the timeout confirms the mechanism:
shorter timeouts reset more clients; an infinite timeout resets none.
"""


def test_ablation_idle_timeout(regenerate):
    (fig,) = regenerate("ablation_idle_timeout")
    by_label = {s.label: s for s in fig.series}
    top = lambda label: by_label[label].y[-1]

    assert top("timeout 5s") >= top("timeout 15s")
    assert top("timeout 15s") > top("timeout inf")
    assert all(v == 0.0 for v in by_label["timeout inf"].y)
