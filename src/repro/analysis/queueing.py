"""Analytic queueing models used to cross-validate the simulator.

The simulated SUT is, at its core, a processor-sharing station fed by a
closed population of think-time clients.  Classical results therefore
predict its behaviour in the regimes where assumptions hold, and the test
suite checks the simulator against them:

* **M/G/1-PS**: the mean sojourn time of a processor-sharing queue
  depends only on the mean service demand — ``E[T] = S / (1 - rho)``.
  At moderate load the simulated response time must track this.
* **Capacity**: the station saturates at ``capacity / S`` replies/s;
  figure-1 plateaus must land there.
* **Erlang-C (M/M/m)**: waiting probability for an m-server station —
  used for thread-pool sizing intuition (how large must a pool be for a
  given offered load before queueing explodes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..http.messages import CHUNK_BYTES, DEFAULT_RESPONSE_HEAD_BYTES
from ..osmodel.costs import CostModel

__all__ = [
    "ServiceEstimate",
    "utilization",
    "ps_response_time",
    "capacity_replies_per_s",
    "erlang_c",
    "mmm_wait_time",
    "saturation_clients",
]


@dataclass(frozen=True)
class ServiceEstimate:
    """Mean CPU demand of one request, derived from the cost model."""

    cpu_seconds: float

    @staticmethod
    def for_threadpool(
        costs: CostModel,
        mean_response_bytes: float,
        requests_per_connection: float = 6.5,
    ) -> "ServiceEstimate":
        """Per-request demand of the thread-pool server."""
        wire = mean_response_bytes + DEFAULT_RESPONSE_HEAD_BYTES
        chunks = max(1.0, wire / CHUNK_BYTES)
        per_request = (
            costs.read_syscall
            + costs.parse_request
            + costs.file_lookup
            + costs.per_byte * wire
            + costs.write_syscall * chunks
            + costs.keepalive_check
        )
        per_connection = costs.accept + costs.close
        return ServiceEstimate(
            per_request + per_connection / max(1.0, requests_per_connection)
        )

    @staticmethod
    def for_event_driven(
        costs: CostModel,
        mean_response_bytes: float,
        requests_per_connection: float = 6.5,
        events_per_request: float = 1.3,
    ) -> "ServiceEstimate":
        """Per-request demand of the event-driven server.

        ``costs`` must already carry the JVM factor.  ``events_per_request``
        accounts for selector dispatches (reads batch pipelined requests;
        some writes need a second readiness round).
        """
        base = ServiceEstimate.for_threadpool(
            costs, mean_response_bytes, requests_per_connection
        ).cpu_seconds
        selector = (costs.select_per_event + costs.dispatch) * events_per_request
        return ServiceEstimate(base + selector)


def utilization(lam: float, service: ServiceEstimate, capacity: float = 1.0) -> float:
    """Offered utilisation rho = lambda * S / C."""
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    return lam * service.cpu_seconds / capacity


def ps_response_time(
    lam: float, service: ServiceEstimate, capacity: float = 1.0
) -> float:
    """Mean sojourn CPU delay of an M/G/1-PS station at arrival rate lam.

    Returns ``inf`` at or beyond saturation.  (This is the *CPU* part of
    the simulated response time; wire time adds on top.)
    """
    rho = utilization(lam, service, capacity)
    if rho >= 1.0:
        return math.inf
    # Capacity-scaled PS: effective service time is S/C.
    return (service.cpu_seconds / capacity) / (1.0 - rho)


def capacity_replies_per_s(service: ServiceEstimate, capacity: float = 1.0) -> float:
    """Saturation throughput of the station."""
    return capacity / service.cpu_seconds


def erlang_c(m: int, offered: float) -> float:
    """Erlang-C probability that an arrival must queue (M/M/m).

    ``offered`` is the offered load in Erlangs (lambda/mu).  Returns 1.0
    when the station is overloaded (offered >= m).
    """
    if m < 1:
        raise ValueError("need at least one server")
    if offered < 0:
        raise ValueError("offered load must be non-negative")
    if offered >= m:
        return 1.0
    # Stable recurrence for the Erlang-B blocking probability.
    b = 1.0
    for k in range(1, m + 1):
        b = offered * b / (k + offered * b)
    rho = offered / m
    return b / (1.0 - rho + rho * b)


def mmm_wait_time(lam: float, mu: float, m: int) -> float:
    """Mean queueing delay of an M/M/m station (inf if unstable)."""
    if mu <= 0:
        raise ValueError("service rate must be positive")
    offered = lam / mu
    if offered >= m:
        return math.inf
    pw = erlang_c(m, offered)
    return pw / (m * mu - lam)


def saturation_clients(
    service: ServiceEstimate,
    capacity: float,
    per_client_request_rate: float,
) -> float:
    """Client count at which offered load reaches station capacity."""
    if per_client_request_rate <= 0:
        raise ValueError("per-client rate must be positive")
    return capacity_replies_per_s(service, capacity) / per_client_request_rate


# ---------------------------------------------------------------------------
# Closed interactive system (N clients with think time Z)
# ---------------------------------------------------------------------------

def interactive_response_time(n_clients: int, throughput: float, think: float) -> float:
    """Interactive response-time law: ``R = N/X - Z``.

    For a closed system of N clients with mean think time Z achieving
    throughput X, this *must* hold for the true response time (it is an
    operational identity) — so it is used to validate the simulator's
    accounting, and to expose what the paper's httperf means obscure
    (excluded error victims make measured R fall below N/X - Z).
    """
    if throughput <= 0:
        raise ValueError("throughput must be positive")
    return n_clients / throughput - think


def closed_system_throughput_bound(
    n_clients: int, service: ServiceEstimate, think: float, capacity: float = 1.0
) -> float:
    """Asymptotic throughput bound of a closed interactive system.

    ``X(N) <= min(N / (Z + S), C / S)`` — the light-load line and the
    saturation plateau whose intersection is the knee the paper's
    figure-1 curves bend at.
    """
    if think < 0:
        raise ValueError("think time must be non-negative")
    light = n_clients / (think + service.cpu_seconds)
    heavy = capacity_replies_per_s(service, capacity)
    return min(light, heavy)


def knee_client_count(
    service: ServiceEstimate, think: float, capacity: float = 1.0
) -> float:
    """The knee N* = C (Z + S) / S where the two asymptotes intersect."""
    return capacity * (think + service.cpu_seconds) / service.cpu_seconds
