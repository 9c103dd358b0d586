"""repro.tuning: self-adaptive autotuner (machine probes → plan → adapt).

The paper hand-picks its configuration — all Section V flags on, ``t'``
chosen so a sub-block fits L2 — for one machine and one input family.
This package automates that judgment for *any* simulated machine × input
pair, in three layers:

* :mod:`~repro.tuning.probes` measures the live machine (fine-grained
  latency, coalesced bandwidth, cache crossover, sync costs) into a
  :class:`MachineProfile`;
* :mod:`~repro.tuning.planner` searches impl × flag-lattice × ``t'``
  analytically, then probe-solves the short-list on a scaled replica,
  producing a ranked :class:`TuningPlan`;
* :mod:`~repro.tuning.adapter` watches the phase profiler during the
  real solve and revises ``offload``/``t'`` between rounds when the plan
  diverges, recording every decision in the trace.

Plans persist in a deterministic JSON :class:`PlanCache`, so the
expensive part runs once per (machine, workload).

Entry points: ``--impl auto`` / ``--opts auto`` / ``--tprime auto`` on
the CLI, ``python -m repro tune`` for the predicted-vs-measured report,
and :func:`autotune` from code.
"""

from __future__ import annotations

from typing import Optional

from ..runtime.machine import MachineConfig
from .adapter import AdapterConfig, OnlineAdapter
from .cache import PlanCache, default_cache_path
from .planner import (
    PROBE_N_CAP,
    PROBE_SEED,
    PlanEntry,
    TuningPlan,
    Workload,
    build_plan,
    expected_rounds,
    parse_opts_key,
    predict_config_ms,
)
from .probes import (
    MachineProfile,
    calibrate_profile,
    machine_fingerprint,
)

__all__ = [
    "AdapterConfig",
    "MachineProfile",
    "OnlineAdapter",
    "PlanCache",
    "PlanEntry",
    "PROBE_N_CAP",
    "PROBE_SEED",
    "TuningPlan",
    "Workload",
    "autotune",
    "build_plan",
    "calibrate_profile",
    "default_cache_path",
    "expected_rounds",
    "machine_fingerprint",
    "parse_opts_key",
    "predict_config_ms",
]


def autotune(
    workload: Workload,
    machine: MachineConfig,
    cache: Optional[PlanCache] = None,
    use_cache: bool = True,
    probe: bool = True,
    workers=None,
) -> TuningPlan:
    """Plan for ``workload`` on ``machine``, via the persistent cache.

    Cache hit: the stored plan comes back untouched (no probes run).
    Miss: a plan is built, stored, and the cache saved.  Pass
    ``use_cache=False`` to force a fresh search without touching disk.
    ``workers`` fans probe solves across processes (plan identical for
    any worker count).
    """
    if not use_cache:
        return build_plan(workload, machine, probe=probe, workers=workers)
    if cache is None:
        cache = PlanCache()
    plan = cache.get(machine, workload)
    if plan is not None:
        return plan
    plan = build_plan(workload, machine, probe=probe, workers=workers)
    cache.put(machine, workload, plan)
    cache.save()
    return plan
