"""Unit tests for the overload-control policy objects.

These exercise each policy in isolation with a hand-rolled clock and
hand-picked standing queue delays — no simulator, no sockets — which is
exactly how the ``on_arrival(now, queue_delay)`` interface is meant to be
testable.  The per-run tests at the end mount policies the way an
experiment does, through ``build_server``, on an idle simulator.
"""

import pytest

from repro.core import ServerSpec, build_server
from repro.net import ListenSocket
from repro.osmodel import Machine, MachineSpec
from repro.overload import (
    FIFO,
    LIFO,
    AlwaysAdmit,
    CoDelShedder,
    OverloadControl,
    TokenBucket,
)
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# AlwaysAdmit
# ---------------------------------------------------------------------------

def test_always_admit_admits_everything_and_counts():
    p = AlwaysAdmit()
    for t in range(50):
        assert p.on_arrival(float(t), 1e6)  # however stale the queue
    assert p.admitted == 50
    assert p.shed == 0


# ---------------------------------------------------------------------------
# TokenBucket
# ---------------------------------------------------------------------------

def test_token_bucket_burst_then_starve():
    p = TokenBucket(rate=1.0, burst=3.0)
    # Burst drains at t=0; fourth arrival in the same instant is shed.
    results = [p.on_arrival(0.0, 0.0) for _ in range(4)]
    assert results == [True, True, True, False]


def test_token_bucket_refills_at_rate():
    p = TokenBucket(rate=2.0, burst=1.0)
    assert p.on_arrival(0.0, 0.0)
    assert not p.on_arrival(0.1, 0.0)  # 0.2 tokens accrued, need 1
    assert p.on_arrival(0.6, 0.0)  # 1.2 accrued since t=0.1, capped at burst


def test_token_bucket_is_deterministic_in_now():
    times = [0.0, 0.05, 0.4, 0.41, 1.0, 1.5, 1.6, 3.0]
    a, b = TokenBucket(rate=2.0, burst=2.0), TokenBucket(rate=2.0, burst=2.0)
    assert [a.on_arrival(t, 0.0) for t in times] == [
        b.on_arrival(t, 0.0) for t in times
    ]


def test_token_bucket_validates():
    with pytest.raises(ValueError):
        TokenBucket(rate=0.0)
    with pytest.raises(ValueError):
        TokenBucket(rate=1.0, burst=0.5)


# ---------------------------------------------------------------------------
# CoDelShedder
# ---------------------------------------------------------------------------

def test_codel_admits_while_delay_below_target():
    p = CoDelShedder(target=0.05, interval=0.5)
    for t in range(100):
        assert p.on_arrival(t * 0.01, 0.01)
    assert p.shed == 0


def test_codel_requires_standing_delay_before_dropping():
    p = CoDelShedder(target=0.05, interval=0.5)
    # Delay above target, but not yet for a whole interval: still admits.
    assert p.on_arrival(0.0, 0.2)
    assert p.on_arrival(0.3, 0.2)
    # A whole interval above target: the first drop fires.
    assert not p.on_arrival(0.6, 0.2)
    assert p.shed == 1


def test_codel_drop_frequency_grows_with_standing_delay():
    p = CoDelShedder(target=0.05, interval=0.5)
    t, sheds, gaps, last_shed = 0.0, 0, [], None
    while t < 20.0:
        if not p.on_arrival(t, 0.2):
            if last_shed is not None:
                gaps.append(t - last_shed)
            last_shed = t
            sheds += 1
        t += 0.01
    assert sheds > 10
    # Control law: inter-drop gaps shrink as the standing queue persists.
    assert gaps[-1] < gaps[0]


def test_codel_recovers_when_delay_subsides():
    p = CoDelShedder(target=0.05, interval=0.5)
    for i in range(200):
        p.on_arrival(i * 0.05, 0.2)
    assert p.shed > 0
    # One below-target arrival disarms the controller completely.
    assert p.on_arrival(100.0, 0.0)
    shed_before = p.shed
    assert p.on_arrival(100.1, 0.2)  # needs a fresh standing interval
    assert p.shed == shed_before


def test_codel_validates():
    with pytest.raises(ValueError):
        CoDelShedder(target=0.0)
    with pytest.raises(ValueError):
        CoDelShedder(interval=-1.0)


# ---------------------------------------------------------------------------
# QueueDiscipline
# ---------------------------------------------------------------------------

def test_queue_disciplines():
    assert FIFO.front_insert is False
    assert LIFO.front_insert is True
    assert FIFO.name == "fifo" and LIFO.name == "lifo"


# ---------------------------------------------------------------------------
# OverloadControl bundle
# ---------------------------------------------------------------------------

def test_control_defaults_are_inert():
    ctl = OverloadControl()
    assert isinstance(ctl.admission, AlwaysAdmit)
    assert ctl.discipline is FIFO
    assert ctl.tag == ""


def test_control_tag_composition():
    ctl = OverloadControl(admission=CoDelShedder(), discipline=LIFO)
    assert ctl.tag == "codel+lifo"
    assert OverloadControl(admission=TokenBucket(rate=100.0)).tag == "token-bucket"


def test_control_stats_and_queue_delay_histogram():
    ctl = OverloadControl(admission=TokenBucket(rate=0.001, burst=1.0))
    ctl.admission.on_arrival(0.0, 0.0)
    ctl.admission.on_arrival(0.0, 0.0)
    for d in (0.1, 0.2, 0.3):
        ctl.record_queue_delay(d)
    stats = ctl.stats()
    assert stats["requests_admitted"] == 1
    assert stats["requests_shed"] == 1
    assert stats["early_closed"] == 0
    assert stats["queue_delay_mean"] == pytest.approx(0.2)
    assert stats["queue_delay_p99"] >= stats["queue_delay_mean"]


# ---------------------------------------------------------------------------
# per-run state: every server mounts its own copy of the spec's control
# ---------------------------------------------------------------------------

def _mount(spec: ServerSpec) -> OverloadControl:
    """The control one run of ``spec`` mounts, as ``Experiment`` builds it."""
    sim = Simulator()
    machine = Machine(sim, MachineSpec())
    return build_server(spec, sim, machine, ListenSocket(sim, machine)).overload


def test_policy_reset_zeroes_counters():
    spec = ServerSpec("httpd", 8, overload=OverloadControl())
    first = _mount(spec)
    for t in range(5):
        first.admission.on_arrival(float(t), 0.0)
    assert first.admission.admitted == 5
    second = _mount(spec)  # the next run starts from zeroed counters
    assert (second.admission.admitted, second.admission.shed) == (0, 0)
    assert spec.overload.admission.admitted == 0  # the spec is untouched


def test_token_bucket_reset_restores_burst():
    spec = ServerSpec(
        "httpd", 8,
        overload=OverloadControl(admission=TokenBucket(rate=0.001, burst=2.0)),
    )
    first = _mount(spec).admission
    assert [first.on_arrival(0.0, 0.0) for _ in range(3)] == [True, True, False]
    assert not first.on_arrival(100.0, 0.0)  # 0.1 token accrued, need 1
    second = _mount(spec).admission
    assert second.on_arrival(100.0, 0.0)  # full burst again, history gone
    assert second.admitted == 1  # counters start from zero too


def test_control_reset_clears_everything():
    spec = ServerSpec(
        "nio", 1,
        overload=OverloadControl(
            admission=TokenBucket(rate=0.001, burst=1.0), discipline=LIFO
        ),
    )
    first = _mount(spec)
    first.admission.on_arrival(0.0, 0.0)
    first.admission.on_arrival(0.0, 0.0)
    first.record_queue_delay(1.0)
    second = _mount(spec)
    assert second is not first and second.admission is not first.admission
    assert second.admission.admitted == 0 and second.admission.shed == 0
    assert second.queue_delay.count == 0
    assert second.discipline == LIFO  # configuration carries over
    assert second.admission.on_arrival(0.0, 0.0)  # bucket full
    assert spec.overload.queue_delay.count == 0
