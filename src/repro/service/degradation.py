"""Graceful-degradation policy: what the service stops doing under load.

The queue's fill fraction drives a three-mode ladder::

    normal    occupancy <  degraded_at   full service
    degraded  occupancy >= degraded_at   no tuning probe solves: jobs
                                         asking for "auto" use cached
                                         plans (exact hit, then nearest
                                         graph-fingerprint neighbour),
                                         else the default configuration
    overload  occupancy >= overload_at   additionally, *low*-priority
                                         submissions are refused at
                                         admission (429 + Retry-After)
                                         and queue-full shedding evicts
                                         lowest-priority work first

The ladder mirrors the paper's claim at the service level: under
pressure the system sheds precision (tuning quality) and the least
important work first, and keeps serving verified answers — it does not
collapse.  Every decision is counted so ``/metrics`` shows exactly what
degraded and how often.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = ["ServiceMode", "DegradationPolicy"]


class ServiceMode:
    NORMAL = "normal"
    DEGRADED = "degraded"
    OVERLOAD = "overload"


@dataclass
class DegradationPolicy:
    """Pure occupancy -> mode mapping plus decision counters."""

    degraded_at: float = 0.5
    overload_at: float = 0.85

    def __post_init__(self) -> None:
        if not 0.0 < self.degraded_at <= self.overload_at <= 1.0:
            raise ValueError(
                "degradation thresholds must satisfy 0 < degraded_at <= overload_at <= 1:"
                f" got {self.degraded_at}, {self.overload_at}"
            )
        self._lock = threading.Lock()
        self.decisions = {
            "plan_probe_skipped": 0,
            "plan_nearest_reused": 0,
            "low_priority_refused": 0,
        }

    def mode(self, occupancy: float) -> str:
        if occupancy >= self.overload_at:
            return ServiceMode.OVERLOAD
        if occupancy >= self.degraded_at:
            return ServiceMode.DEGRADED
        return ServiceMode.NORMAL

    def admits(self, mode: str, priority_rank: int) -> bool:
        """Admission filter: overload refuses the lowest priority class
        outright (shed at the door, before it can displace anything)."""
        if mode == ServiceMode.OVERLOAD and priority_rank == 0:
            self.count("low_priority_refused")
            return False
        return True

    def allow_probes(self, mode: str) -> bool:
        """Probe solves (the expensive tuning stage) only run in normal
        mode; degraded plans come from the cache, else the default
        configuration."""
        return mode == ServiceMode.NORMAL

    def count(self, decision: str) -> None:
        with self._lock:
            self.decisions[decision] = self.decisions.get(decision, 0) + 1

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.decisions)
