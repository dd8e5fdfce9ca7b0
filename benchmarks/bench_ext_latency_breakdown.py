"""Extension: span-derived latency breakdown — where client time goes.

The paper *infers* from response-time curves (figure 2/6) that the
thread-pool server makes clients queue while the event-driven server
serves them; the span observability makes that attribution direct.  On
the bandwidth-bounded UP 100 Mbit testbed each architecture's client
time splits into *queue wait* (SYN retransmission, kernel backlog,
requests sitting unserved — including the failed connections httperf
excludes from response-time statistics) and *service* (CPU service plus
response streaming).

Acceptance, asserted below:

(a) at peak load, the paper-sized httpd pool (896 threads) spends the
    majority of its clients' time queueing — queue-wait share exceeds
    service share once failed connections are counted; and
(b) nio remains service-dominated across the whole sweep: its clients'
    time is honest work (streaming the response), not hidden waiting.
"""

import pytest


def test_extension_latency_breakdown(regenerate):
    queue, service = regenerate("extension_latency_breakdown")
    assert queue.figure_id == "extLBa"
    assert service.figure_id == "extLBb"
    q = {s.label: s for s in queue.series}
    s = {s.label: s for s in service.series}

    # Shares are percentages and complementary per point.
    for label in q:
        for qy, sy in zip(q[label].y, s[label].y):
            assert 0.0 <= qy <= 100.0 and 0.0 <= sy <= 100.0
            assert qy + sy == pytest.approx(100.0, abs=0.1)

    # (a) httpd-896 at peak load: queue wait dominates service time once
    # the failed connections are attributed instead of excluded.
    assert q["httpd-896t"].y[-1] > s["httpd-896t"].y[-1]
    assert q["httpd-896t"].y[-1] > 50.0

    # (b) nio stays service-dominated at every load level: the selector
    # streams all clients concurrently, so nothing queues behind a
    # busy worker.
    assert max(q["nio-1w"].y) < 50.0
    assert min(s["nio-1w"].y) > 50.0
    assert s["nio-1w"].y[-1] > q["nio-1w"].y[-1]

    # Queue share grows with offered load for the thread-limited pool.
    assert q["httpd-896t"].y[-1] > q["httpd-896t"].y[0]
