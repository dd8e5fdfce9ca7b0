"""Shared fixtures for the tier-1 suite."""

import dataclasses
import gc
import json
import tracemalloc

import pytest
from hypothesis import settings

from repro.cluster import experiment as cluster_experiment
from repro.core import experiment
from repro.sim import Simulator
from tests import reference_kernel

# A harder search for properties that take their example count from the
# active profile (tests/test_reference_kernel.py, tests/test_sim_rng.py):
#   pytest tests/test_reference_kernel.py tests/test_sim_rng.py --hypothesis-profile=ci
settings.register_profile("ci", max_examples=1000, deadline=None)

#: Modules whose experiments build a Simulator; the oracle swaps it.
KERNEL_USERS = (experiment, cluster_experiment)


def canonical(metrics) -> str:
    """A RunMetrics as JSON text, minus ``tombstones_compacted``.

    This is the form ``benchmarks/e2e/probe.py`` hashes: every field,
    with the one counter that counts the production heap's compactions
    (always 0 on the reference kernel) left out.  Text, not a dict, so
    a NaN compares equal to itself.
    """
    body = dataclasses.asdict(metrics)
    body["server_stats"].pop("tombstones_compacted", None)
    return json.dumps(body, sort_keys=True, indent=1, default=float)


@pytest.fixture
def reference_oracle(monkeypatch):
    """``check(run)``: ``run()`` on the production and reference kernels.

    ``run`` builds and runs experiments and returns a RunMetrics or a
    list of them.  ``check`` calls it twice: once as is, and once with
    every Experiment and ClusterExperiment running on the naive kernel
    in ``tests/reference_kernel.py``, which shares no fast path with the
    production one.  It asserts that at least one reference simulator
    ran, that the whole RunMetrics agree (:func:`canonical`), and that
    each reference simulator took as many pushes as its production twin
    took sequence numbers.  It returns the production result.
    """

    def on(kernel, run):
        built = []

        def build():
            sim = kernel()
            built.append(sim)
            return sim

        with monkeypatch.context() as patch:
            for module in KERNEL_USERS:
                patch.setattr(module, "Simulator", build)
            result = run()
        return result, built

    def texts(result):
        rows = result if isinstance(result, list) else [result]
        return [canonical(m) for m in rows]

    def check(run):
        production, sims = on(Simulator, run)
        reference, references = on(reference_kernel.Simulator, run)
        assert references, "no experiment ran on the reference kernel"
        assert texts(reference) == texts(production)
        assert [r.pushes for r in references] == [s._seq for s in sims]
        return production

    return check


@pytest.fixture
def derived_streams(monkeypatch):
    """Names of the random streams whose seed material is derived while
    the test runs, in order (every ``repro.sim.rng._seed_sequence``
    call: each new ``stream()`` and each handle's first entry)."""
    from repro.sim import rng

    names = []
    original = rng._seed_sequence

    def recording(seed, name):
        names.append(name)
        return original(seed, name)

    monkeypatch.setattr(rng, "_seed_sequence", recording)
    return names


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
