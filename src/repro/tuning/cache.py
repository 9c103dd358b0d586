"""Persistent tuning-plan cache.

Plans are expensive relative to a solve at small n (a plan is one small
probe solve per searched impl), and a plan is a pure function of (machine
parameters, workload), so the obvious move is a cache keyed on exactly
that: ``machine fingerprint × kind × graph family × n × m``.  One JSON
file, default ``.tune_cache.json`` at the repository root (override with
``REPRO_TUNE_CACHE``; ``benchmarks/`` and CI point it at a scratch
directory).

Determinism contract: saving the same plans in the same order always
produces byte-identical files (keys sorted, fixed float rounding done by
the plan's serializer, newline-terminated).  Corrupt, stale-schema, or
truncated cache files are treated as *empty* — the cache is an
optimization, never a correctness dependency — and are overwritten by
the next save.  Writes are atomic (temp file + rename) so a crashed run
can't leave a half-written cache behind.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional

from ..atomicio import atomic_write_text
from ..runtime.machine import MachineConfig
from .planner import TuningPlan, Workload

__all__ = ["PlanCache", "default_cache_path", "machine_fingerprint"]

#: 3: a CC plan measures five impls.  A schema-2 plan held twelve, so
#: ``choose`` would answer an explicit unsearched one with its own ``t'``
#: where a fresh plan answers with the best entry's; such files, like
#: schema 1's (analytic predictions beside measurements), regenerate.
_SCHEMA_VERSION = 3
_ENV_VAR = "REPRO_TUNE_CACHE"


def default_cache_path() -> Path:
    """``$REPRO_TUNE_CACHE`` or ``<repo root>/.tune_cache.json``."""
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / ".tune_cache.json"


def machine_fingerprint(machine: MachineConfig) -> str:
    """Stable 16-hex-digit digest of every machine parameter.

    Two machines with identical parameter sets (regardless of ``name``)
    fingerprint identically; any parameter change — cache scaling,
    per-call scale, thread count — produces a new key.  This is the
    machine half of the tuning-plan cache key.
    """
    fields = asdict(machine)
    fields.pop("name", None)
    blob = json.dumps(fields, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def plan_key(machine: MachineConfig, workload: Workload) -> str:
    return f"{machine_fingerprint(machine)}|{workload.key()}"


class PlanCache:
    """Load/store :class:`TuningPlan` objects by (machine, workload)."""

    def __init__(self, path: Optional[Path] = None) -> None:
        self.path = Path(path) if path is not None else default_cache_path()
        self._plans: Dict[str, TuningPlan] = {}
        self._load()

    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return  # missing or corrupt: start empty
        if not isinstance(payload, dict) or payload.get("schema") != _SCHEMA_VERSION:
            return  # stale schema: regenerate rather than guess
        plans = payload.get("plans")
        if not isinstance(plans, dict):
            return
        for key, entry in plans.items():
            try:
                self._plans[key] = TuningPlan.from_dict(entry)
            except (KeyError, TypeError, ValueError):
                continue  # one bad record doesn't poison the rest

    # -- read ---------------------------------------------------------------

    def get(self, machine: MachineConfig, workload: Workload) -> Optional[TuningPlan]:
        plan = self._plans.get(plan_key(machine, workload))
        if plan is None:
            return None
        # Guard against key collisions and hand-edited files: the stored
        # plan must actually describe this machine and workload.
        if plan.machine_key != machine_fingerprint(machine):
            return None
        if plan.workload != workload:
            return None
        return plan

    def nearest(
        self, machine: MachineConfig, workload: Workload, within: float = 8.0
    ) -> Optional[TuningPlan]:
        """Best cached plan for the same *graph fingerprint family*.

        The exact-key :meth:`get` misses whenever ``n``/``m`` differ at
        all; under service degradation we would rather reuse the plan
        tuned for the nearest input of the same ``kind`` ×
        ``graph_kind`` on this machine than pay for probe solves.  The
        nearest plan minimizes the log-space distance in ``(n, m)`` and
        must lie within a factor of ``within`` on both axes (the
        calibrated-scaling invariance keeps rankings stable across that
        range); beyond it, ``None`` — a stale plan is worse than the
        default configuration.
        """
        fingerprint = machine_fingerprint(machine)
        best: Optional[TuningPlan] = None
        best_dist = math.inf
        for plan in self._plans.values():
            w = plan.workload
            if plan.machine_key != fingerprint:
                continue
            if w.kind != workload.kind or w.graph_kind != workload.graph_kind:
                continue
            if min(w.n, workload.n) <= 0 or min(w.m, 1) <= 0 or workload.m <= 0:
                continue
            ratio_n = abs(math.log(w.n / workload.n))
            ratio_m = abs(math.log(max(w.m, 1) / workload.m))
            if ratio_n > math.log(within) or ratio_m > math.log(within):
                continue
            dist = ratio_n + ratio_m
            if dist < best_dist:
                best, best_dist = plan, dist
        return best

    def __len__(self) -> int:
        return len(self._plans)

    def keys(self) -> list:
        return sorted(self._plans)

    # -- write --------------------------------------------------------------

    def put(self, machine: MachineConfig, workload: Workload, plan: TuningPlan) -> None:
        self._plans[plan_key(machine, workload)] = plan

    def save(self) -> Path:
        """Write the cache atomically; returns the path written.

        Byte-identical for identical contents: plans serialize with
        sorted keys and fixed rounding, entries are ordered by key.
        """
        payload = {
            "schema": _SCHEMA_VERSION,
            "plans": {key: self._plans[key].to_dict() for key in sorted(self._plans)},
        }
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        return atomic_write_text(self.path, text)
