"""Extension: overload control — deliberate shedding vs the paper's kind.

The paper's httpd sheds load *accidentally* (kernel SYN drops, idle-reap
resets); this benchmark mounts deliberate admission policies on the same
server and regenerates figure 3's error curves with and without them.

Acceptance for the extension, asserted below:

(a) the uncontrolled baseline reproduces figure 3's error-rate shape —
    resets grow with client count, client timeouts appear only past
    saturation; and
(b) at least one shedding policy (the token bucket) yields strictly
    fewer connection-reset errors at peak load while keeping goodput
    within 10% of the uncontrolled peak.
"""


def test_extension_overload_control(regenerate):
    resets, timeouts, goodput = regenerate("extension_overload_control")
    assert resets.figure_id == "extOCa"
    r = {s.label: s for s in resets.series}
    t = {s.label: s for s in timeouts.series}
    g = {s.label: s for s in goodput.series}

    # (a) Figure 3 shape from the uncontrolled baseline: reset errors
    # grow with the client count and are already present well before
    # saturation; client timeouts only blow up at extreme load.
    base_resets = r["httpd"].y
    assert base_resets[-1] > 0.0
    assert base_resets[-1] > base_resets[1] > base_resets[0]
    base_timeouts = t["httpd"].y
    assert max(base_timeouts[:3]) == 0.0  # clean below saturation
    assert base_timeouts[-1] > 1.0  # explodes at the heaviest load

    # (b) Token-bucket admission at peak load: strictly fewer resets,
    # goodput within 10% of the best the uncontrolled server ever does.
    tb_resets = r["httpd+token-bucket"].y
    assert tb_resets[-1] < base_resets[-1]
    uncontrolled_peak = max(g["httpd"].y)
    assert g["httpd+token-bucket"].y[-1] >= 0.9 * uncontrolled_peak
