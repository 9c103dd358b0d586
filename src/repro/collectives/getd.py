"""The GetD collective: coordinated parallel reads (paper's Algorithm 2).

``GetD(D, indices)`` fetches ``D[indices]`` for every thread's private
request buffer in one coalesced round:

1. each thread sorts its requests by target thread id (count sort);
2. threads exchange request counts and deposit positions
   (SMatrix/PMatrix — the all-to-all setup phase);
3. barrier;
4. each thread serves the requests against its local block (optionally
   through ``t'`` virtual threads so the block is cache-resident) and
   ships one coalesced message per requesting thread;
5. each thread permutes the received elements back to request order.

Communication drops from one message per element (naive translation) to
at most one message per thread pair per call — "applying communication
coalescing in effect simulates a shared-memory algorithm on CGM".

The simulation executes the data movement with one vectorized gather and
charges each phase to the clocks/trace exactly as decomposed above, so
hot spots (all requests hitting the owner of ``D[0]``) show up as real
clock skew on the owning thread.

The caller's request vector is read, never rewritten: ``offload`` is
modeled by correcting the integer results the cost model consumes
(per-requester sizes, the hot owner's SMatrix row and distinct count)
by the few hot positions and patching the served values there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import kernels
from ..core.optimizations import OptimizationFlags
from ..errors import CollectiveError
from ..integrity.monitor import guard_payload
from ..perf.derived import freeze, memoized
from ..runtime.partitioned import PartitionedArray
from ..runtime.runtime import PGASRuntime
from ..runtime.shared_array import SharedArray
from ..runtime.trace import Category
from ..scheduling.virtual_threads import charge_local_serve
from .alltoall import charge_setup
from .base import CollectiveContext, charge_target_ids, check_requests, offload_hits

__all__ = ["getd", "TransferPlan", "charge_sort", "charge_transfers", "charge_permute_back"]


@dataclass(frozen=True)
class TransferPlan:
    """Bulk-transfer volumes derived from an SMatrix.

    All arrays are per-thread (length ``s``).  ``remote_*`` counts cross
    *nodes*; ``peer_*`` counts cross threads within one node (flat UPC
    cannot aggregate those — they remain distinct memputs, but move at
    memory speed); ``self_elems`` stay within the thread.
    """

    remote_elems: np.ndarray
    remote_msgs: np.ndarray  # float: hierarchical plans share node messages across threads
    peer_elems: np.ndarray
    self_elems: np.ndarray


@memoized(maxsize=64, name="transfer_pair_masks")
def _pair_masks(s: int, t: int) -> tuple:
    """``(remote, peer, self)`` boolean ``s x s`` masks over (owner,
    requester) pairs of a machine with ``t`` threads per node — pure
    geometry, so built once per machine shape instead of per call."""
    node = np.arange(s) // t
    same_node = node[:, None] == node[None, :]
    same_thread = np.eye(s, dtype=bool)
    return freeze(~same_node), freeze(same_node & ~same_thread), freeze(same_thread)


def build_transfer_plan(
    rt: PGASRuntime,
    smat: np.ndarray,
    charge_to_owner: bool,
    hierarchical: bool = False,
) -> TransferPlan:
    """Split SMatrix volumes into remote / same-node-peer / self parts.

    ``charge_to_owner=True`` attributes each pair's traffic to the owner
    (data flows owner -> requester: GetD); ``False`` attributes it to the
    requester (requester -> owner: SetD).

    ``hierarchical=True`` aggregates each node's payload toward a peer
    node into ONE message (the paper's future-work proposal; flat UPC
    "messages from threads on the same node can not be easily
    aggregated"), so the per-thread message count drops from up to
    ``s - t`` to ``(p - 1) / t``.
    """
    s = rt.s
    if smat.shape != (s, s):
        raise CollectiveError(f"SMatrix must be ({s},{s}), got {smat.shape}")
    t = rt.machine.threads_per_node
    remote, peer, same_thread = _pair_masks(s, t)

    axis = 1 if charge_to_owner else 0
    remote_elems = np.where(remote, smat, 0).sum(axis=axis)
    if hierarchical:
        # One aggregated message per (node, peer-node) pair with traffic,
        # shared evenly by the node's threads.
        p = rt.machine.nodes
        node_mat = smat.reshape(p, t, p, t).sum(axis=(1, 3))
        off_diag = ~np.eye(p, dtype=bool)
        node_axis = 1 if charge_to_owner else 0
        node_msgs = ((node_mat > 0) & off_diag).sum(axis=node_axis)
        remote_msgs = np.repeat(node_msgs / t, t)
    else:
        remote_msgs = (np.where(remote, smat, 0) > 0).sum(axis=axis).astype(np.float64)
    peer_elems = np.where(peer, smat, 0).sum(axis=axis)
    self_elems = np.where(same_thread, smat, 0).sum(axis=axis)
    return TransferPlan(
        remote_elems.astype(np.int64),
        remote_msgs,
        peer_elems.astype(np.int64),
        self_elems.astype(np.int64),
    )


def charge_sort(
    rt: PGASRuntime, sizes: np.ndarray, opts: OptimizationFlags, sort_method: str
) -> None:
    """Charge the per-thread grouping of requests by target thread."""
    sizes = sizes.astype(np.float64)
    if sort_method == "count":
        rt.charge(Category.SORT, rt.cost.count_sort_time(sizes, rt.s))
    elif sort_method == "quick":
        rt.charge(Category.SORT, rt.cost.comparison_sort_time(sizes))
    else:
        raise CollectiveError(f"unknown sort method {sort_method!r}; use 'count' or 'quick'")
    rt.counters.add(sorted_elements=int(sizes.sum()))


def charge_transfers(
    rt: PGASRuntime,
    plan: TransferPlan,
    opts: OptimizationFlags,
    bytes_per: int,
) -> None:
    """Charge the bulk-transfer phase of a collective."""
    comm = rt.cost.bulk_transfer_time(
        plan.remote_elems,
        plan.remote_msgs,
        bytes_per=bytes_per,
        rdma=opts.rdma,
        linear_order=not opts.circular,
    )
    # Threads with nothing to send pay nothing.
    comm = np.where(plan.remote_elems + plan.remote_msgs > 0, comm, 0.0)
    rt.charge_comm(comm, serialize=True)
    if opts.hierarchical:
        # Staging pass: each thread copies its outgoing elements into the
        # node's aggregated send buffer.
        rt.charge(
            Category.COPY,
            rt.cost.seq_access_time(plan.remote_elems.astype(np.float64), bytes_per),
        )
    # Same-node peer transfers: distinct memputs at memory speed (the flat
    # thread organization cannot aggregate them), plus self copies.
    peer = rt.cost.seq_access_time(plan.peer_elems.astype(np.float64), bytes_per)
    peer = np.where(plan.peer_elems > 0, peer, 0.0)
    rt.charge(Category.COMM, peer)
    own = rt.cost.seq_access_time(plan.self_elems.astype(np.float64), bytes_per)
    own = np.where(plan.self_elems > 0, own, 0.0)
    rt.charge(Category.COPY, own)
    rt.counters.add(
        remote_messages=int(round(float(np.asarray(plan.remote_msgs, dtype=np.float64).sum()))),
        remote_bytes=int(plan.remote_elems.sum()) * bytes_per,
    )
    if rt.faults is not None:
        # A dropped coalesced message costs a timeout plus retransmitting
        # the whole payload of that (average-sized) message.
        msgs = np.asarray(plan.remote_msgs, dtype=np.float64)
        avg_bytes = np.where(
            msgs > 0, plan.remote_elems.astype(np.float64) * bytes_per / np.maximum(msgs, 1.0), 0.0
        )
        rt.charge_message_faults(msgs, rt.cost.remote_message_time(avg_bytes, rdma=opts.rdma))


def charge_permute_back(rt: PGASRuntime, sizes: np.ndarray, bytes_per: int) -> None:
    """Step 6: reorder received elements to match the request order.

    The permutation is *known* (recorded during the group phase), so it
    is applied with one level of destination blocking — streamed passes
    plus cold line misses, not full random access."""
    sizes = sizes.astype(np.float64)
    rt.charge(Category.IRREGULAR, rt.cost.grouped_permute_time(sizes, bytes_per))
    rt.counters.add(local_random_accesses=int(sizes.sum()))


def owner_distinct_counts(array: SharedArray, indices: np.ndarray, s: int) -> np.ndarray:
    """Distinct requested elements per owning thread (for the cold-miss
    serve bound): the owner's serve loop touches each distinct element
    once; duplicated requests for component roots hit its cache."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        return np.zeros(s, dtype=np.int64)
    return kernels.active_backend().owner_distinct(idx, array.size, array.block, s)


def charge_shared_memory_serve(
    rt: PGASRuntime,
    array: SharedArray,
    sizes: np.ndarray,
    distinct: np.ndarray,
    tprime: int,
    category: str = Category.COPY,
) -> None:
    """Single-node (shared-memory) GetD/SetD serve phase.

    On one SMP node there is no owner side: after grouping, each thread
    gathers (or scatters) its *own* requests directly, visiting the
    shared array one block at a time, so the working set is the smaller
    of ``block / t'`` and the requests' distinct-target footprint
    (``distinct`` per requester).  No SMatrix, no transfers, no serve
    hotspot — this is the "shared-memory versions of GetD and SetD" of
    the paper's Fig. 4 experiment.
    """
    sizes = sizes.astype(np.float64)
    bytes_per = array.nbytes_per_elem
    total_bytes = float(array.size * bytes_per)
    if tprime > 1:
        rt.charge(Category.SORT, rt.cost.virtual_scan_time(sizes, tprime, bytes_per))
        rt.counters.add(sorted_elements=int(sizes.sum()))
    distinct = distinct.astype(np.float64)
    ws = rt.cost.distinct_working_set(distinct, total_bytes, rt.s * tprime)
    rt.charge(
        category,
        rt.cost.gather_time(sizes, distinct, ws, bytes_per, mlp=rt.cost.GATHER_MLP),
    )
    rt.counters.add(local_random_accesses=int(sizes.sum()))


def getd(
    rt: PGASRuntime,
    array: SharedArray,
    indices: PartitionedArray,
    opts: OptimizationFlags = OptimizationFlags.none(),
    ctx: Optional[CollectiveContext] = None,
    cache_key: Optional[str] = None,
    tprime: int = 1,
    sort_method: str = "count",
    hot_value=None,
    hot_index: int = 0,
) -> np.ndarray:
    """Collective read: returns ``array[indices]`` aligned with the
    original flat request order.

    Parameters
    ----------
    indices:
        Per-thread request buffers (each thread requests its segment).
    opts, ctx, cache_key:
        Optimization flags and the cross-iteration id cache.
    tprime:
        Virtual threads per physical thread in the serve phase (Fig. 4).
    sort_method:
        ``'count'`` (production) or ``'quick'`` (the Fig. 3 configuration).
    hot_value, hot_index:
        When ``opts.offload`` and ``hot_value`` is given, requests for
        ``hot_index`` are answered locally with ``hot_value`` instead of
        being sent (valid because the caller knows that location is
        constant — ``D[0] == 0`` in CC/MST).
    """
    check_requests(rt, array, indices)
    rt.counters.add(collective_calls=1)
    _profile_before = rt.phase_start()

    charge_target_ids(rt, indices, opts, ctx, cache_key)
    # Offloaded requests stay in the vector; they leave the *model*: the
    # counts the charges consume are corrected by the (few) hot hits.
    hot = offload_hits(rt, indices, opts.offload and hot_value is not None, hot_index)
    sizes = indices.sizes()
    if hot.size:
        hot_counts = np.diff(np.searchsorted(hot, indices.offsets))
        # The blocked-layout owner of an in-range index (a custom block
        # leaves the overflow with the last thread).
        hot_owner = min(hot_index // array.block, rt.s - 1)
        sizes = sizes - hot_counts

    charge_sort(rt, sizes, opts, sort_method)
    if rt.analyzer is not None:
        # Coordinated read: the collective's protocol orders it, so the
        # detector tracks it for phase stats but exempts it from races.
        rt.analyzer.record_collective(
            array, "r", indices.total - hot.size, phase=f"getd[{cache_key or 'dyn'}]"
        )

    if rt.machine.nodes == 1:
        # Shared-memory GetD: no count exchange, no transfers — each
        # thread walks the shared array block by block itself.
        distinct = indices.segment_distinct()
        if hot.size:
            distinct = distinct - (hot_counts > 0)
        charge_shared_memory_serve(rt, array, sizes, distinct, tprime)
    else:
        # The targets passed check_requests, so the SMatrix kernel takes
        # them as they are, without send_matrix's re-validation.
        smat = kernels.active_backend().exchange_matrix(
            indices.data, indices.requester_base(), array.size, array.block, rt.s
        )
        charge_setup(rt, hierarchical=opts.hierarchical)
        distinct = owner_distinct_counts(array, indices.data, rt.s)
        if hot.size:
            smat[hot_owner] -= hot_counts
            distinct[hot_owner] -= 1
        # Serve phase: each owner thread gathers the requested elements
        # from its local block (working set shrunk by t' and bounded by
        # the distinct-target footprint), then ships them.
        received = smat.sum(axis=1)
        charge_local_serve(
            rt,
            received,
            array.local_sizes().astype(np.float64),
            tprime,
            opts.localcpy,
            category=Category.COPY,
            bytes_per=array.nbytes_per_elem,
            distinct=distinct,
        )
        plan = build_transfer_plan(rt, smat, charge_to_owner=True, hierarchical=opts.hierarchical)
        charge_transfers(rt, plan, opts, array.nbytes_per_elem)
    charge_permute_back(rt, sizes, array.nbytes_per_elem)
    rt.barrier()

    rt.phase_end(f"getd[{cache_key or 'dyn'}]", indices.total, _profile_before)
    served = array.gather(indices.data)
    if rt.machine.nodes > 1:
        # The owner -> requester wire leg: may suffer (seeded) silent
        # payload flips, may be end-to-end checksummed — see guard_payload.
        served = guard_payload(
            rt, served, sizes, array.nbytes_per_elem, domain=array.size, absent=hot
        )
    if hot.size:
        served[hot] = hot_value
    return served
