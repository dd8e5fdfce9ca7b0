"""Analysis substrate: queueing models, warm-up detection, law validation."""

from .queueing import (
    ServiceEstimate,
    capacity_replies_per_s,
    closed_system_throughput_bound,
    erlang_c,
    interactive_response_time,
    knee_client_count,
    mmm_wait_time,
    ps_response_time,
    saturation_clients,
    utilization,
)
from .stats import mser_truncation
from .validation import (
    LawCheck,
    bandwidth_law,
    littles_law,
    utilization_law,
    validate_run,
)

__all__ = [
    "ServiceEstimate",
    "capacity_replies_per_s",
    "closed_system_throughput_bound",
    "erlang_c",
    "interactive_response_time",
    "knee_client_count",
    "mmm_wait_time",
    "ps_response_time",
    "saturation_clients",
    "utilization",
    "mser_truncation",
    "LawCheck",
    "bandwidth_law",
    "littles_law",
    "utilization_law",
    "validate_run",
]
