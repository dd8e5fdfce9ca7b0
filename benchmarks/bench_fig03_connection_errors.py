"""Paper figure 3: client-timeout and connection-reset error rates.

Expected shape: httpd produces connection resets (15 s idle reaping vs
heavy-tailed think times) growing with the number of clients, and far more
client timeouts than nio; nio produces exactly zero resets.
"""


def test_figure_3_connection_errors(regenerate):
    timeouts, resets = regenerate("figure_3")
    nio_resets = next(s for s in resets.series if s.label == "nio")
    httpd_resets = next(s for s in resets.series if s.label == "httpd")

    # The paper's sharpest qualitative claim: nio NEVER resets.
    assert all(v == 0.0 for v in nio_resets.y)
    # httpd resets are real and grow with concurrent sessions.
    assert max(httpd_resets.y) > 0.5
    assert httpd_resets.y[-1] > httpd_resets.y[1]

    nio_timeouts = next(s for s in timeouts.series if s.label == "nio")
    httpd_timeouts = next(s for s in timeouts.series if s.label == "httpd")
    assert sum(httpd_timeouts.y) >= sum(nio_timeouts.y)
