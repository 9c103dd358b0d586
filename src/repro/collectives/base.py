"""Shared machinery for the GetD/SetD/SetDMin collectives.

Holds the per-solver :class:`CollectiveContext` (remembers which request
buffers have had their target thread ids computed, for the ``ids``
optimization) and the request pre-processing steps common to reads and
writes:

* the up-front validation of the request partition;
* the target-id charge (intrinsic vs direct arithmetic vs cached);
* the ``offload`` check that finds requests for the known-constant
  ``D[0]``.

The caller's request vector is read-only throughout: nothing here (or
in ``GetD``) copies or compacts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..core.optimizations import OptimizationFlags
from ..errors import CollectiveError
from ..perf.derived import freeze
from ..runtime.partitioned import PartitionedArray
from ..runtime.runtime import PGASRuntime
from ..runtime.shared_array import SharedArray, out_of_range
from ..runtime.trace import Category

__all__ = ["CollectiveContext", "charge_target_ids", "check_requests", "offload_hits"]

_NO_HITS = freeze(np.empty(0, dtype=np.int64))


@dataclass
class CollectiveContext:
    """Cross-iteration state for a family of collective calls.

    ``id_cache`` maps a caller-chosen key (e.g. ``"edges.u"``) to the
    length of the request buffer whose target ids were last computed
    under it.  The paper's ``id`` optimization: "Noticing that the
    target ids do not change across iteration, we compute them once and
    store them in a global buffer."  The cache is *modeled* only — a hit
    makes the id computation free on the clocks, while the simulator
    derives the SMatrix from the actual targets on every call.  It is
    invalidated whenever the request buffer changes length (i.e. after
    ``compact``).
    """

    id_cache: Dict[str, int] = field(default_factory=dict)

    def invalidate(self, key: str | None = None) -> None:
        if key is None:
            self.id_cache.clear()
        else:
            self.id_cache.pop(key, None)


def charge_target_ids(
    rt: PGASRuntime,
    indices: PartitionedArray,
    opts: OptimizationFlags,
    ctx: Optional[CollectiveContext] = None,
    cache_key: Optional[str] = None,
) -> None:
    """Charge the owner-thread computation of every request, with the
    ``ids`` cost semantics:

    * without ``ids``: every element pays the compiler-intrinsic cost on
      every call;
    * with ``ids`` but no cache hit: one direct vectorized computation;
    * with ``ids`` and a cache hit (same key, same request length): free.

    Only the charge: the SMatrix kernel derives the owners from the
    targets themselves.
    """
    cached = opts.ids and ctx is not None and cache_key is not None
    if cached and ctx.id_cache.get(cache_key) == indices.total:
        return
    sizes = indices.sizes().astype(np.float64)
    if opts.ids:
        rt.charge(Category.WORK, rt.cost.op_time(sizes))
        if cached:
            ctx.id_cache[cache_key] = indices.total
    else:
        rt.charge(Category.WORK, rt.cost.intrinsic_id_time(sizes))
    rt.counters.add(alu_ops=int(indices.total))


def check_requests(rt: PGASRuntime, array: SharedArray, indices: PartitionedArray) -> None:
    """Reject a malformed request partition before anything is charged:
    one part per thread, every index inside the array."""
    if indices.parts != rt.s:
        raise CollectiveError(
            f"request partition has {indices.parts} parts but the machine has {rt.s} threads"
        )
    if out_of_range(indices.data, array.size):
        raise CollectiveError(f"request index out of range [0, {array.size})")


def offload_hits(
    rt: PGASRuntime, indices: PartitionedArray, enabled: bool, hot_index: int = 0
) -> np.ndarray:
    """Ascending flat positions of the requests for the known-constant
    hot index (vertex 0); empty when ``offload`` does not apply.

    "For each thread issuing a GetD operation, it first checks whether
    the index is 0.  If it is, it knows the value already and drops this
    element from the request list."  The check itself is one pass of
    vectorizable compares; the request vector is only read — what
    "dropping" means is the caller's business (``GetD`` corrects its
    counts, ``SetD`` compacts).
    """
    if not enabled or indices.total == 0:
        return _NO_HITS
    rt.charge(Category.WORK, rt.cost.op_time(indices.sizes().astype(np.float64)))
    return np.flatnonzero(indices.data == hot_index)
