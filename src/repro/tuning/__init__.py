"""repro.tuning: self-adaptive autotuner (plan → adapt).

The paper hand-picks its configuration — all Section V flags on, ``t'``
chosen so a sub-block fits L2 — for one machine and one input family.
This package automates that judgment for *any* simulated machine × input
pair, in two layers:

* :mod:`~repro.tuning.planner` measures impl × ``t'`` at the paper's
  "Optimized" flags — one taped probe solve per impl on a scaled
  replica, replayed over the ``t'`` grid — producing a ranked
  :class:`TuningPlan`;
* :mod:`~repro.tuning.adapter` watches the phase profiler during the
  real solve and revises ``offload``/``t'`` between rounds when the plan
  diverges, recording every decision in the trace.

Plans persist in a deterministic JSON :class:`PlanCache`, keyed by
:func:`machine_fingerprint` × workload, so the expensive part runs once
per (machine, workload).

Entry points: ``--impl auto`` / ``--opts auto`` / ``--tprime auto`` on
the CLI, ``python -m repro tune`` for the measured plan table, and
:func:`autotune` from code.
"""

from __future__ import annotations

from typing import Optional

from ..runtime.machine import MachineConfig
from .adapter import AdapterConfig, OnlineAdapter
from .cache import PlanCache, default_cache_path, machine_fingerprint
from .planner import (
    PROBE_N_CAP,
    PROBE_SEED,
    PlanEntry,
    TuningPlan,
    Workload,
    build_plan,
)

__all__ = [
    "AdapterConfig",
    "OnlineAdapter",
    "PlanCache",
    "PlanEntry",
    "PROBE_N_CAP",
    "PROBE_SEED",
    "TuningPlan",
    "Workload",
    "autotune",
    "build_plan",
    "default_cache_path",
    "machine_fingerprint",
]


def autotune(
    workload: Workload,
    machine: MachineConfig,
    cache: Optional[PlanCache] = None,
    use_cache: bool = True,
) -> TuningPlan:
    """Plan for ``workload`` on ``machine``, via the persistent cache.

    Cache hit: the stored plan comes back untouched (no probes run).
    Miss: a plan is built, stored, and the cache saved.  Pass
    ``use_cache=False`` to force a fresh search without touching disk.
    """
    if not use_cache:
        return build_plan(workload, machine)
    if cache is None:
        cache = PlanCache()
    plan = cache.get(machine, workload)
    if plan is not None:
        return plan
    plan = build_plan(workload, machine)
    cache.put(machine, workload, plan)
    cache.save()
    return plan
