"""Shared fixtures for the tier-1 suite."""

import contextlib
import gc
import tracemalloc

import pytest
from hypothesis import settings

from repro.core import experiment
from repro.sim import Simulator

# A harder search for properties that take their example count from the
# active profile (tests/test_reference_kernel.py):
#   pytest tests/test_reference_kernel.py --hypothesis-profile=ci
settings.register_profile("ci", max_examples=1000, deadline=None)


@pytest.fixture
def heap_only(monkeypatch):
    """Context manager: Experiments inside it run on the heap-only kernel.

    ``Simulator(wheel=False)`` is the reference dispatcher the timing
    wheel is compared against.  On exit the context checks that at least
    one simulator was built and that none of them routed a timer to the
    wheel, so a wheel-vs-heap comparison cannot pass vacuously.
    """

    @contextlib.contextmanager
    def use():
        built = []

        def build():
            sim = Simulator(wheel=False)
            built.append(sim)
            return sim

        with monkeypatch.context() as patch:
            patch.setattr(experiment, "Simulator", build)
            yield
        assert built, "no Experiment ran inside heap_only()"
        for sim in built:
            stats = sim.timer_stats()
            assert stats["wheel_enabled"] is False
            assert stats["wheel_scheduled"] == 0

    return use


@pytest.fixture
def bytes_per_instance():
    """``measure(factory, n=1000)``: traced bytes one ``factory()`` keeps.

    Builds ``n`` instances under :mod:`tracemalloc`, keeps them all
    alive, and returns the allocated bytes per instance (the list that
    holds them adds one pointer each).
    """

    def measure(factory, n=1000):
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kept = [factory() for _ in range(n)]
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        del kept
        return held / n

    return measure
