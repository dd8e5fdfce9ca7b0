#!/usr/bin/env python
"""Reproduce the paper's uniprocessor study (sections 4.1-4.2).

Sweeps workload intensity for the nio server (1/4/8 workers) and httpd
(512/896/4096/6000 threads) on the CPU-bounded 1 Gbit scenario, then:

* prints the throughput and response-time tables (paper figures 1-2),
* prints error and connection-time tables (paper figures 3-4),
* picks each server's best configuration the way section 4.1 does.

Usage::

    python examples/uniprocessor_scalability.py
"""

from repro.core import (
    HTTPD_UP_POOLS,
    NIO_UP_WORKERS,
    FigureRunner,
    ServerSpec,
    UP_GIGABIT,
    best_configuration,
)


def main() -> None:
    runner = FigureRunner(verbose=True)  # the quick profile

    for name in ("figure_1", "figure_2", "figure_3", "figure_4"):
        for fig in runner.figure(name):
            print()
            print(fig.table())

    # Section 4.1's configuration study: pick the best of each family.
    nio_sweeps = [
        runner.sweep(ServerSpec.nio(w), UP_GIGABIT) for w in NIO_UP_WORKERS
    ]
    httpd_sweeps = [
        runner.sweep(ServerSpec.httpd(p), UP_GIGABIT) for p in HTTPD_UP_POOLS
    ]
    print()
    for family, sweeps in (("nio", nio_sweeps), ("httpd", httpd_sweeps)):
        winner, ranking = best_configuration(sweeps)
        print(f"best {family} configuration: {winner.label}")
        for label, capacity in ranking:
            print(f"    {label:14s} capacity ~ {capacity:8.1f} replies/s")


if __name__ == "__main__":
    main()
