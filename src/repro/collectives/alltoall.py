"""SMatrix/PMatrix setup: the all-to-all phase of Algorithm 2.

Before data moves, every thread must tell every other thread how many
elements it will request and where to deposit them ("Inform all threads
of number of elements and their target locations", steps 3.1-3.3 of the
paper's Algorithm 2).  That is an all-to-all of two small scalars per
thread pair — ``O(s^2)`` short messages in total — and is the phase whose
burst "overwhelms the cluster and the nodes" at 256 threads (Section VI),
producing the paper's 10x degradation from 8 to 16 threads per node.

This module computes the real matrices (vectorized bincount over
(owner, requester) pair keys) and charges the congestion-scaled setup
cost.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..errors import CollectiveError
from ..runtime.partitioned import PartitionedArray
from ..runtime.runtime import PGASRuntime
from ..runtime.shared_array import out_of_range
from ..runtime.trace import Category

__all__ = ["send_matrix", "position_matrix", "charge_setup", "exchange_counts"]


def send_matrix(
    requesters: np.ndarray, owners: np.ndarray, s: int
) -> np.ndarray:
    """``SMatrix[i][j]``: number of elements thread ``i`` (owner) sends to
    thread ``j`` (requester) — equivalently, how many of ``j``'s requests
    target ``i``'s local block."""
    requesters = np.asarray(requesters, dtype=np.int64)
    owners = np.asarray(owners, dtype=np.int64)
    if requesters.shape != owners.shape:
        raise CollectiveError("requesters/owners shape mismatch")
    if requesters.size == 0:
        return np.zeros((s, s), dtype=np.int64)
    if out_of_range(owners, s) or out_of_range(requesters, s):
        raise CollectiveError("thread id out of range in send matrix")
    # Owner ids are the targets of a one-element-per-thread layout.
    return kernels.active_backend().exchange_matrix(owners, requesters * s, s, 1, s)


def position_matrix(smatrix: np.ndarray) -> np.ndarray:
    """``PMatrix[i][j]``: offset in requester ``j``'s receive buffer where
    owner ``i`` deposits its elements (exclusive prefix sums down each
    requester column, matching steps 3.2-3.3)."""
    cum = np.cumsum(smatrix, axis=0)
    pmat = np.zeros_like(smatrix)
    pmat[1:, :] = cum[:-1, :]
    return pmat


def charge_setup(
    rt: PGASRuntime, participants: int | None = None, hierarchical: bool = False
) -> None:
    """Charge the all-to-all setup: each thread issues ~2(s-1) short
    remote writes (SMatrix and PMatrix entries), congestion-scaled, then
    the barrier of Algorithm 2's step 4.  With ``hierarchical`` (the
    paper's future-work proposal) only node leaders talk across the
    network."""
    s = rt.s if participants is None else participants
    per_thread = rt.cost.alltoall_setup_time(s, hierarchical=hierarchical)
    rt.charge(Category.SETUP, per_thread)
    if hierarchical:
        nodes = rt.machine.nodes
        rt.counters.add(
            remote_messages=2 * nodes * max(nodes - 1, 0),
            remote_bytes=2 * nodes * max(nodes - 1, 0) * rt.machine.threads_per_node**2 * 8,
        )
    else:
        rt.counters.add(
            remote_messages=2 * s * max(s - 1, 0), remote_bytes=2 * s * max(s - 1, 0) * 8
        )
    if rt.faults is not None and rt.machine.nodes > 1:
        # The setup burst's short messages are loss opportunities too.
        t = rt.machine.threads_per_node
        if hierarchical:
            per_thread = 2.0 * max(rt.machine.nodes - 1, 0) / t
        else:
            per_thread = 2.0 * max(s - t, 0)
        rt.charge_message_faults(
            np.full(rt.s, per_thread), rt.cost.remote_message_time(8.0)
        )
    rt.barrier()


def exchange_counts(
    rt: PGASRuntime,
    indices: PartitionedArray,
    owners: np.ndarray,
    hierarchical: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Build and "exchange" the SMatrix/PMatrix for a request partition,
    charging the setup phase.  Returns ``(SMatrix, PMatrix)``.  The
    collectives read only the SMatrix, so they call the kernel and
    :func:`charge_setup` directly and never build the PMatrix."""
    smat = send_matrix(indices.thread_ids(), owners, rt.s)
    pmat = position_matrix(smat)
    charge_setup(rt, hierarchical=hierarchical)
    return smat, pmat
