#!/usr/bin/env python
"""Reproduce the paper's limiting-factor study (section 4.3, figures 5-6).

Runs the best configuration of each server under the three network
configurations (100 Mbit, 2x100 Mbit, 1 Gbit) and reports where each
system saturates and who wins past the knee.

Usage::

    python examples/bandwidth_limits.py
"""

from repro.core import FigureRunner, find_crossover


def main() -> None:
    runner = FigureRunner(verbose=True)  # the quick profile

    (fig5,) = runner.figure_5()
    (fig6,) = runner.figure_6()
    print()
    print(fig5.table())
    print()
    print(fig6.table())

    by_label = {s.label: s for s in fig5.series}
    print()
    for net in ("100Mbps", "200Mbps", "1Gbit"):
        nio = by_label[f"NIO {net}"]
        httpd = by_label[f"Httpd {net}"]
        plateau_nio = max(nio.y)
        plateau_httpd = max(httpd.y)
        knee = find_crossover(nio.x, nio.y, httpd.y)
        knee_txt = f"nio overtakes at ~{knee:.0f} clients" if knee else "no crossover sampled"
        print(
            f"{net:>8s}: nio plateau {plateau_nio:7.1f} r/s | "
            f"httpd plateau {plateau_httpd:7.1f} r/s | {knee_txt}"
        )
    print(
        "\nReading: on the bandwidth-bounded links both rise linearly to the\n"
        "wire's ceiling; httpd's reset traffic costs it a little goodput at\n"
        "the plateau. On 1 Gbit the CPU is the wall and the shapes diverge."
    )


if __name__ == "__main__":
    main()
