"""Micro-benchmarks of the simulation substrate itself.

These bound the cost of the hot paths every figure regeneration leans on:
raw event dispatch, processor-sharing completions, fluid-link
transmissions, and the idle-reap timed wait.  Useful for catching
performance regressions in the kernel (the full figure suite runs ~10^7
events).  The runners live in :func:`repro.core.perf.kernel_runner`,
which also writes ``BENCH_kernel.json``; the event counts here must match
``BENCH_EVENTS`` in ``benchmarks/check_perf_floor.py``.
"""

from repro.core.perf import kernel_runner


def test_kernel_event_dispatch(benchmark):
    n = 20_000
    result = benchmark(kernel_runner("timeout_chain"), n)
    assert result == n


def test_cpu_processor_sharing_station(benchmark):
    n = 10_000
    result = benchmark(kernel_runner("cpu_bursts"), n)
    assert result == n


def test_link_fluid_transmissions(benchmark):
    n = 20_000
    result = benchmark(kernel_runner("link_transmissions"), n)
    assert result == n


def test_kernel_timed_wait_storm(benchmark):
    n = 60_000
    result = benchmark(kernel_runner("timed_wait_storm"), n)
    assert result == n
