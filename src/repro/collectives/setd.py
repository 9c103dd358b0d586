"""SetD and SetDMin: coordinated parallel writes.

``SetD`` implements *arbitrary* concurrent write (several threads may
target one location; one of them wins) and ``SetDMin`` implements
*priority* concurrent write — "when multiple threads compete to write to
the same location the request with the smallest value wins".  SetDMin is
the paper's replacement for MST's fine-grained locks: the min-reduction
happens inside the collective at the owning thread, so no lock is ever
taken.

For determinism the simulation resolves SetD's "arbitrary" outcome with
the same minimum rule — a legal arbitrary-CRCW adjudication that keeps
results bit-identical across thread counts (the grafting algorithms only
ever *shrink* labels, so min is also what a real execution converges to).

Structure mirrors GetD with the transfer direction reversed: requesters
ship coalesced ``(index, value)`` pairs to owners, who apply them to
their local block.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import kernels
from ..core.optimizations import OptimizationFlags
from ..errors import CollectiveError
from ..integrity.monitor import guard_payload
from ..runtime.partitioned import PartitionedArray
from ..runtime.runtime import PGASRuntime
from ..runtime.shared_array import SharedArray
from ..runtime.trace import Category
from ..scheduling.virtual_threads import charge_local_serve
from .alltoall import charge_setup
from .base import CollectiveContext, charge_target_ids, check_requests, offload_hits
from .getd import (
    build_transfer_plan,
    charge_shared_memory_serve,
    charge_sort,
    charge_transfers,
    owner_distinct_counts,
)

__all__ = ["setd", "setdmin"]


def _scatter_collective(
    rt: PGASRuntime,
    array: SharedArray,
    indices: PartitionedArray,
    values: np.ndarray,
    opts: OptimizationFlags,
    ctx: Optional[CollectiveContext],
    cache_key: Optional[str],
    tprime: int,
    sort_method: str,
    drop_hot: bool,
    hot_index: int,
    combine: str = "min",
    record_words: int = 2,
    packed_payload: bool = False,
) -> int:
    check_requests(rt, array, indices)
    values = np.asarray(values)
    if values.shape[0] != indices.total:
        raise CollectiveError("values must align with the request partition")
    rt.counters.add(collective_calls=1)
    _profile_before = rt.phase_start()
    requested = indices.total

    charge_target_ids(rt, indices, opts, ctx, cache_key)
    if offload_hits(rt, indices, opts.offload and drop_hot, hot_index).size:
        # Unlike a read, a dropped write cannot be patched up afterwards:
        # it must not reach the array, so the records are really removed.
        kept = np.flatnonzero(indices.data != hot_index)
        indices, values = indices.take_sorted(kept), values.take(kept)
    sizes = indices.sizes()

    charge_sort(rt, sizes, opts, sort_method)
    if rt.analyzer is not None:
        # Coordinated write: adjudicated at the owner inside the
        # collective, so it is exempt from the race analysis.
        rt.analyzer.record_collective(
            array, "w", indices.total, phase=f"setd[{cache_key or 'dyn'}]"
        )

    if rt.machine.nodes == 1:
        # Shared-memory SetD: each thread applies its own grouped updates
        # directly, block by block.
        charge_shared_memory_serve(rt, array, sizes, indices.segment_distinct(), tprime)
        rt.barrier()
    else:
        # As in GetD: the kernel directly, on the validated targets.
        smat = kernels.active_backend().exchange_matrix(
            indices.data, indices.requester_base(), array.size, array.block, rt.s
        )
        charge_setup(rt, hierarchical=opts.hierarchical)
        # Requester -> owner: (index, value) pairs by default; MST ships
        # wider records (key + endpoints + edge id) via record_words.
        pair_bytes = record_words * array.nbytes_per_elem
        plan = build_transfer_plan(rt, smat, charge_to_owner=False, hierarchical=opts.hierarchical)
        charge_transfers(rt, plan, opts, pair_bytes)
        # Owners apply the received updates to their local block.
        received = smat.sum(axis=1)
        charge_local_serve(
            rt,
            received,
            array.local_sizes().astype(np.float64),
            tprime,
            opts.localcpy,
            category=Category.COPY,
            bytes_per=array.nbytes_per_elem,
            distinct=owner_distinct_counts(array, indices.data, rt.s),
        )
        rt.barrier()

    rt.phase_end(f"setd[{cache_key or 'dyn'}]", requested, _profile_before)
    if rt.machine.nodes > 1:
        # The requester -> owner wire leg (indices travel checksummed in
        # the same records; the value/key field is the corruptible part).
        values = guard_payload(
            rt,
            values,
            sizes,
            record_words * array.nbytes_per_elem,
            domain=array.size,
            packed=packed_payload,
        )
    if combine == "min":
        changed = array.scatter_min(indices.data, values)
    elif combine == "store_min":
        changed = array.scatter_store_min(indices.data, values)
    else:
        raise CollectiveError(f"unknown combine mode {combine!r}; use 'min' or 'store_min'")
    if rt.integrity is not None:
        rt.integrity.note_write(array, indices.data)
    return changed


def setd(
    rt: PGASRuntime,
    array: SharedArray,
    indices: PartitionedArray,
    values: np.ndarray,
    opts: OptimizationFlags = OptimizationFlags.none(),
    ctx: Optional[CollectiveContext] = None,
    cache_key: Optional[str] = None,
    tprime: int = 1,
    sort_method: str = "count",
    drop_hot: bool = False,
    hot_index: int = 0,
    combine: str = "min",
    record_words: int = 2,
) -> int:
    """Arbitrary concurrent write collective.

    ``drop_hot=True`` extends the ``offload`` optimization to writes: the
    caller asserts that writes targeting ``hot_index`` are no-ops (true
    for grafting — labels only shrink and ``D[0] == 0`` is minimal), so
    they are dropped before communication.

    ``combine`` chooses the deterministic arbitrary-CRCW adjudication:
    ``'min'`` (never increases a stored value; correct for grafting) or
    ``'store_min'`` (plain store of the minimum proposal; needed by
    Shiloach-Vishkin's stagnant-star hook, which may raise a label).
    Returns the number of locations whose value changed.
    """
    return _scatter_collective(
        rt, array, indices, values, opts, ctx, cache_key, tprime, sort_method,
        drop_hot, hot_index, combine, record_words,
    )


def setdmin(
    rt: PGASRuntime,
    array: SharedArray,
    indices: PartitionedArray,
    values: np.ndarray,
    opts: OptimizationFlags = OptimizationFlags.none(),
    ctx: Optional[CollectiveContext] = None,
    cache_key: Optional[str] = None,
    tprime: int = 1,
    sort_method: str = "count",
    drop_hot: bool = False,
    hot_index: int = 0,
    record_words: int = 2,
    packed_payload: bool = False,
) -> int:
    """Priority (minimum) concurrent write collective — the lock-free
    replacement for MST's per-supervertex locks.  ``record_words`` sizes
    the shipped record (MST sends key + endpoints + edge id);
    ``packed_payload=True`` tells the silent-fault layer the values are
    packed ``(weight << 32) | position`` keys, so injected wire flips
    stay confined to the weight field (silent-wrong, never a crash).
    Returns the number of locations whose value changed."""
    return _scatter_collective(
        rt, array, indices, values, opts, ctx, cache_key, tprime, sort_method,
        drop_hot, hot_index, "min", record_words, packed_payload,
    )
