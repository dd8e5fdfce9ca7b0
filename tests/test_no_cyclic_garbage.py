"""Cycle census: a run leaves nothing for the cyclic garbage collector.

The kernel allocates an event object (or more) per simulated step, so any
reference cycle formed per event turns into work for Python's cyclic
collector, which then walks the whole live model at every generation-2
collection.  The kernel's invariant (DESIGN.md §8) is that every per-event
object is freed by reference counting alone.

Each case below runs a small experiment with a patched
:meth:`Simulator.run`: on first entry it collects whatever set-up left
behind and switches the collector off; after each ``run`` returns, while
the model is still alive, ``gc.collect()`` must find nothing unreachable.
The matrix spans every server architecture and each feature that adds
its own race or timer pattern: httpd idle reaping, the dynamic pool,
HTTP/1.0, overload control, observation, fluid populations and the
cluster tier.
"""

import dataclasses
import gc
from collections import Counter

import pytest

from repro import (
    AdaptiveTimeout,
    CoDelShedder,
    Experiment,
    OverloadControl,
    ServerSpec,
    TokenBucket,
    WorkloadSpec,
)
from repro.cluster import (
    restart_point,
    slowloris_point,
    straggler_cluster,
    uniform_cluster,
)
from repro.overload import LIFO
from repro.sim import Simulator
from repro.workload import FluidConfig


def _experiment(server, clients=150, warmup=1.5, duration=1.5, fluid=None):
    return Experiment(
        server=server,
        workload=WorkloadSpec(
            clients=clients, duration=duration, warmup=warmup, fluid=fluid
        ),
        seed=42,
    )


def _httpd(**changes):
    return dataclasses.replace(ServerSpec.httpd(64), **changes)


def _cluster_slowloris():
    cluster = uniform_cluster(
        n=2, server=_httpd(threads=6, idle_timeout=30.0), cpu_speed=0.3
    )
    point = slowloris_point(
        cluster, clients=150, attack_weight=1.0, duration=1.5, warmup=1.5
    )
    return point.experiment()


def _cluster_restart_observed():
    cluster = dataclasses.replace(
        straggler_cluster(policy="least_connections"), observe=True
    )
    return restart_point(
        cluster, clients=150, duration=1.5, warmup=1.5
    ).experiment()


CASES = {
    "nio": lambda: _experiment(ServerSpec.nio(1)),
    "httpd": lambda: _experiment(ServerSpec.httpd(64)),
    "staged": lambda: _experiment(ServerSpec.staged(1)),
    "amped": lambda: _experiment(ServerSpec.amped(2)),
    "httpd-reaping": lambda: _experiment(_httpd(idle_timeout=0.5)),
    "httpd-dynamic-pool": lambda: _experiment(_httpd(dynamic_pool=True)),
    "httpd-http10": lambda: _experiment(_httpd(keep_alive=False)),
    "codel-lifo-adaptive": lambda: _experiment(
        _httpd(
            overload=OverloadControl(
                admission=CoDelShedder(),
                discipline=LIFO,
                timeout=AdaptiveTimeout(base=5.0, floor=0.5),
            )
        )
    ),
    "token-bucket": lambda: _experiment(
        ServerSpec(
            kind="nio",
            threads=1,
            overload=OverloadControl(admission=TokenBucket(rate=50.0)),
        )
    ),
    "observe": lambda: _experiment(_httpd(observe=True)),
    "fluid-50k": lambda: _experiment(
        ServerSpec.nio(1),
        clients=50_000,
        warmup=2.0,
        duration=1.0,
        fluid=FluidConfig(),
    ),
    "cluster-slowloris": _cluster_slowloris,
    "cluster-restart-observe": _cluster_restart_observed,
}


@pytest.fixture
def census(monkeypatch):
    """Patch ``Simulator.run`` to count cyclic garbage after each run.

    Returns the list the patched ``run`` appends to: one ``Counter`` of
    unreachable object types per ``run`` call (empty when clean).
    """
    found = []
    original = Simulator.run
    enabled = gc.isenabled()
    debug = gc.get_debug()

    def run(self, until=None):
        if not found:
            # Set-up garbage is not the kernel's: clear it, then stop
            # the collector so every cycle made from here on survives
            # until the census below.
            gc.collect()
            gc.disable()
        original(self, until)
        gc.set_debug(debug | gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            found.append(Counter(type(obj).__name__ for obj in gc.garbage))
        finally:
            gc.garbage.clear()
            gc.set_debug(debug)

    monkeypatch.setattr(Simulator, "run", run)
    try:
        yield found
    finally:
        gc.set_debug(debug)
        if enabled:
            gc.enable()
        gc.collect()


@pytest.mark.parametrize("build", CASES.values(), ids=list(CASES))
def test_run_leaves_no_cyclic_garbage(build, census):
    build().run()
    assert census, "no Simulator.run call was observed"
    for garbage in census:
        total = sum(garbage.values())
        assert total == 0, (
            f"{total} objects only the cyclic collector can free: "
            f"{garbage.most_common(8)}"
        )
