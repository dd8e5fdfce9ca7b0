#!/usr/bin/env python
"""Reproduce the paper's multiprocessor study (section 5, figures 7-10).

Finds each server's best SMP configuration, then measures how both
servers scale from the uniprocessor to the 4-way SMP — the paper's
observation is a ~2x gain for both (Linux-2.4-era SMP efficiency).

Usage::

    python examples/smp_scaling.py
"""

from repro.core import (
    FigureRunner,
    SMP_GIGABIT,
    ServerSpec,
    UP_GIGABIT,
    best_configuration,
    scaling_factor,
)


def main() -> None:
    runner = FigureRunner(verbose=True)  # the quick profile

    for figs in (runner.figure_7(), runner.figure_8()):
        for fig in figs:
            print()
            print(fig.table())

    # Section 5.1: best SMP configurations.
    nio_smp = [runner.sweep(ServerSpec.nio(w), SMP_GIGABIT) for w in (2, 3, 4)]
    winner, ranking = best_configuration(nio_smp)
    print(f"\nbest nio SMP configuration: {winner.label}")
    for label, capacity in ranking:
        print(f"    {label:10s} capacity ~ {capacity:8.1f} replies/s")

    # Section 5.2: scaling factors 1 -> 4 CPUs.
    print()
    for name, up_spec, smp_spec in (
        ("nio", ServerSpec.nio(1), ServerSpec.nio(2)),
        ("httpd", ServerSpec.httpd(4096), ServerSpec.httpd(4096)),
    ):
        up = runner.sweep(up_spec, UP_GIGABIT)
        smp = runner.sweep(smp_spec, SMP_GIGABIT)
        print(
            f"{name:>6s}: UP capacity {max(up.throughputs):7.1f} r/s -> "
            f"SMP {max(smp.throughputs):7.1f} r/s "
            f"(x{scaling_factor(up, smp):.2f})"
        )


if __name__ == "__main__":
    main()
