"""Round-boundary checkpointing for crash-and-recover solvers.

The round driver (:func:`repro.faults.rounds.run_rounds`, which runs CC
grafting, the Liu–Tarjan lattice and MST Borůvka) snapshots each solve's
mutable state — the label array and the live edge partitions — at the
top of every round.  When the runtime raises
:class:`~repro.errors.ThreadCrash` mid-round, the driver restores the
snapshot and replays only the lost round: graceful degradation instead
of aborting, at the cost of one streamed pass per round to write the
checkpoint (charged to the ``Fault`` trace category, so fault-tolerance
overhead is visible in the breakdown).

By default checkpointing engages only when the active plan schedules
crashes; with a crash-free plan (or no plan) ``save``/``restore`` are
no-ops and the run's modeled time is untouched.  Callers that need
protection without scheduled crashes — the :mod:`repro.integrity`
verify-and-repair path — pass ``enabled=True`` explicitly.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

import numpy as np

from ..errors import FaultError
from ..runtime.trace import Category

__all__ = ["RoundCheckpointer"]


class RoundCheckpointer:
    """Snapshot/restore of one round's mutable solver state.

    ``arrays`` values are NumPy arrays copied on save (shared-array
    payloads the round mutates in place); keyword ``refs`` are stored by
    reference (immutable-by-convention objects such as
    :class:`~repro.runtime.partitioned.PartitionedArray`, which the
    solvers rebind but never mutate).
    """

    def __init__(self, rt, enabled: "bool | None" = None) -> None:
        self.rt = rt
        if enabled is None:
            # Default: engage exactly when the plan can crash a thread.
            enabled = rt.faults is not None and rt.faults.plan.has_crashes
        self.enabled = bool(enabled)
        self._arrays: Dict[str, np.ndarray] = {}
        self._refs: Dict[str, Any] = {}

    def _charge_pass(self, total_elems: int) -> None:
        """One streamed pass over the checkpointed payload, split evenly
        across threads (each thread persists its own partition)."""
        per_thread = float(total_elems) / max(self.rt.s, 1)
        self.rt.charge(Category.FAULT, self.rt.cost.seq_access_time(per_thread))

    def save(self, arrays: Mapping[str, np.ndarray] | None = None, **refs: Any) -> None:
        """Snapshot the round's state (no-op while disabled)."""
        if not self.enabled:
            return
        arrays = arrays or {}
        self._arrays = {name: np.array(value, copy=True) for name, value in arrays.items()}
        self._refs = dict(refs)
        self._charge_pass(sum(a.size for a in self._arrays.values()))

    def restore(self) -> Dict[str, Any]:
        """Return the last snapshot (array copies stay owned by the
        checkpointer, so a second crash in the replayed round restores
        the same state)."""
        if not self.enabled or (not self._arrays and not self._refs):
            raise FaultError("no checkpoint to restore")
        self.rt.counters.add(checkpoint_restores=1)
        self._charge_pass(sum(a.size for a in self._arrays.values()))
        state: Dict[str, Any] = {name: arr.copy() for name, arr in self._arrays.items()}
        state.update(self._refs)
        return state
