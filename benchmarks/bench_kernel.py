"""Micro-benchmarks of the simulation substrate itself.

These bound the cost of the hot paths every figure regeneration leans on:
raw event dispatch, processor-sharing completions, fluid-link
transmissions, and the idle-reap timed wait.  Useful for catching
performance regressions in the kernel (the full figure suite runs ~10^7
events).  The runners and their event counts live in
:mod:`repro.core.perf`, which also writes ``BENCH_kernel.json``; each
bench records its key and event count in ``extra_info``, from which
``benchmarks/check_perf_floor.py`` computes its rate.
"""

import pytest

from repro.core.perf import KERNEL_EVENTS, kernel_runner


@pytest.mark.parametrize("name", list(KERNEL_EVENTS))
def test_kernel(benchmark, name):
    events = KERNEL_EVENTS[name]
    benchmark.extra_info.update(bench=name, events=events)
    assert benchmark(kernel_runner(name), events) == events
