"""repro: reproduction of "Evaluating the Scalability of Java Event-Driven
Web Servers" (Beltran, Carrera, Torres, Ayguade — ICPP 2004).

The package builds the paper's entire experimental apparatus as a
discrete-event simulation — the event-driven (NIO) server, the
multithreaded (Apache httpd2) server, the httperf/SURGE workload, the
testbed networks and the 1/4-way SMP machine — plus live asyncio/threaded
implementations on real sockets.

Quickstart::

    from repro import Experiment, ServerSpec, WorkloadSpec
    metrics = Experiment(
        server=ServerSpec.nio(1),
        workload=WorkloadSpec(clients=2400),
    ).run()
    print(metrics.row())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured comparison of every figure.
"""

from .core import (
    BEST_HTTPD,
    BEST_NIO_SMP,
    BEST_NIO_UP,
    PAPER_CLIENT_RANGE,
    Experiment,
    FigureData,
    FigureRunner,
    MeasurementProfile,
    Scenario,
    ServerSpec,
    SweepResult,
    WorkloadSpec,
    sweep_clients,
)
from .metrics import RunMetrics, format_table
from .overload import (
    AdmissionPolicy,
    AlwaysAdmit,
    CoDelShedder,
    OverloadControl,
    TokenBucket,
)

__version__ = "1.0.0"

__all__ = [
    "BEST_HTTPD",
    "BEST_NIO_SMP",
    "BEST_NIO_UP",
    "PAPER_CLIENT_RANGE",
    "Experiment",
    "FigureData",
    "FigureRunner",
    "MeasurementProfile",
    "Scenario",
    "ServerSpec",
    "SweepResult",
    "WorkloadSpec",
    "sweep_clients",
    "RunMetrics",
    "format_table",
    "AdmissionPolicy",
    "AlwaysAdmit",
    "CoDelShedder",
    "OverloadControl",
    "TokenBucket",
    "__version__",
]
