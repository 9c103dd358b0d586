"""Shared machinery for the GetD/SetD/SetDMin collectives.

Holds the per-solver :class:`CollectiveContext` (caches target-thread-id
buffers across iterations for the ``ids`` optimization) and the request
pre-processing steps common to reads and writes:

* target-id computation (intrinsic vs direct arithmetic vs cached);
* the ``offload`` filter that drops requests for the known-constant
  ``D[0]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..core.optimizations import OptimizationFlags
from ..errors import CollectiveError
from ..runtime.partitioned import PartitionedArray
from ..runtime.runtime import PGASRuntime
from ..runtime.shared_array import SharedArray
from ..runtime.trace import Category

__all__ = ["CollectiveContext", "compute_owner_threads", "OffloadResult", "apply_offload"]


@dataclass
class CollectiveContext:
    """Cross-iteration state for a family of collective calls.

    ``id_cache`` maps a caller-chosen key (e.g. ``"edges.u"``) to the
    owner-thread array previously computed for a request buffer of a
    given length.  The paper's ``id`` optimization: "Noticing that the
    target ids do not change across iteration, we compute them once and
    store them in a global buffer."  The cache is invalidated whenever
    the request buffer changes length (i.e. after ``compact``).
    """

    id_cache: Dict[str, tuple[int, np.ndarray]] = field(default_factory=dict)

    def invalidate(self, key: str | None = None) -> None:
        if key is None:
            self.id_cache.clear()
        else:
            self.id_cache.pop(key, None)


def compute_owner_threads(
    rt: PGASRuntime,
    array: SharedArray,
    indices: PartitionedArray,
    opts: OptimizationFlags,
    ctx: Optional[CollectiveContext] = None,
    cache_key: Optional[str] = None,
) -> np.ndarray:
    """Owner thread of every request, with the ``ids`` cost semantics.

    * without ``ids``: every element pays the compiler-intrinsic cost on
      every call;
    * with ``ids`` but no cache hit: one direct vectorized computation;
    * with ``ids`` and a cache hit (same key, same request length): free.
    """
    sizes = indices.sizes().astype(np.float64)
    if opts.ids and ctx is not None and cache_key is not None:
        hit = ctx.id_cache.get(cache_key)
        if hit is not None and hit[0] == indices.total:
            return hit[1]
    owners = array.owner_thread(indices.data)
    if opts.ids:
        rt.charge(Category.WORK, rt.cost.op_time(sizes))
        if ctx is not None and cache_key is not None:
            ctx.id_cache[cache_key] = (indices.total, owners)
    else:
        rt.charge(Category.WORK, rt.cost.intrinsic_id_time(sizes))
    rt.counters.add(alu_ops=int(indices.total))
    return owners


@dataclass
class OffloadResult:
    """Outcome of the ``offload`` filter on one request partition."""

    indices: PartitionedArray
    owners: np.ndarray
    #: Ascending flat positions, in the *original* request array, of the
    #: kept requests; ``None`` when nothing was dropped.  Computed once
    #: and shared by every payload that rides the same requests.
    kept: Optional[np.ndarray]
    dropped: int

    def expand(self, served: np.ndarray, fill_value) -> np.ndarray:
        """Re-inflate served values to the original request order,
        filling dropped positions with the known constant."""
        if self.kept is None:
            return served
        out = np.full(self.kept.size + self.dropped, fill_value, dtype=served.dtype)
        out[self.kept] = served
        return out


def apply_offload(
    rt: PGASRuntime,
    indices: PartitionedArray,
    owners: np.ndarray,
    opts: OptimizationFlags,
    hot_index: int = 0,
) -> OffloadResult:
    """Drop requests for the known-constant hot index (vertex 0).

    "For each thread issuing a GetD operation, it first checks whether
    the index is 0.  If it is, it knows the value already and drops this
    element from the request list."  The check itself is one pass of
    vectorizable compares.
    """
    if owners.shape[0] != indices.total:
        raise CollectiveError("owners array must align with the request partition")
    if not opts.offload or indices.total == 0:
        return OffloadResult(indices, owners, None, 0)
    rt.charge(Category.WORK, rt.cost.op_time(indices.sizes().astype(np.float64)))
    kept = np.flatnonzero(indices.data != hot_index)
    dropped = indices.total - kept.size
    if dropped == 0:
        return OffloadResult(indices, owners, None, 0)
    return OffloadResult(indices.take_sorted(kept), owners.take(kept), kept, dropped)
