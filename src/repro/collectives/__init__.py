"""Coalescing collectives: GetD, SetD, SetDMin (paper Section IV-A / V).

These are the paper's mechanism for turning fine-grained shared-memory
access patterns into CGM-style rounds: at most one coalesced message per
thread pair per call, with the serve phase scheduled for cache residency.
"""

from .alltoall import charge_setup, exchange_counts, position_matrix, send_matrix
from .base import CollectiveContext, charge_target_ids, check_requests, offload_hits
from .getd import TransferPlan, build_transfer_plan, getd
from .schedule import (
    circular_schedule,
    is_contention_free,
    linear_schedule,
    max_step_contention,
)
from .setd import setd, setdmin

__all__ = [
    "CollectiveContext",
    "TransferPlan",
    "build_transfer_plan",
    "charge_setup",
    "charge_target_ids",
    "check_requests",
    "circular_schedule",
    "exchange_counts",
    "getd",
    "is_contention_free",
    "linear_schedule",
    "max_step_contention",
    "offload_hits",
    "position_matrix",
    "send_matrix",
    "setd",
    "setdmin",
]
