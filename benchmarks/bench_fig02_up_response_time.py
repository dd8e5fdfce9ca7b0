"""Paper figure 2: response-time comparison on a uniprocessor system.

Expected shape: nio response time rises with workload intensity (all
clients progress concurrently); httpd's *measured* mean stays lower
because timed-out/reset victims are excluded (httperf semantics).
"""


def test_figure_2_up_response_time(regenerate):
    nio, httpd = regenerate("figure_2")
    # nio response time grows with load.
    one_worker = nio.series[0]
    assert one_worker.y[-1] > one_worker.y[0]

    # At top load, best-httpd measured response time is below best-nio
    # (the paper's "surprisingly low" observation).
    httpd_best = next(s for s in httpd.series if s.label.startswith("4096"))
    assert httpd_best.y[-1] < one_worker.y[-1]
