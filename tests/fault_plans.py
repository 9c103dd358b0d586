"""Fault plans shared by more than one test module."""

from __future__ import annotations

import dataclasses

from repro import CrashEvent, FaultPlan, NodeLossEvent

# One fixed plan composing every fault class the injector knows: message
# loss, silent corruption, a transient thread crash, and a permanent
# node loss.  Integrity protection absorbs the transients; resilience
# absorbs the loss.
CHAOS_PLAN = FaultPlan(
    seed=11,
    loss=1e-3,
    corruption=5.0,
    payload_corruption=1e-4,
    crashes=(CrashEvent(thread=5, at_time=1e-4),),
    node_losses=(NodeLossEvent(node=1, at_time=4e-4),),
)

# CHAOS_PLAN at a lower flip rate: at 5 flips/s SV's rounds meet a new
# flip on nearly every replay and give up after their repair bound.
REPLICA_PLAN = dataclasses.replace(CHAOS_PLAN, corruption=2.0)
