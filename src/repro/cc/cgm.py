"""CGM (communication-efficient) connected components — the baseline the
paper's thesis argues against.

Dehne et al.'s coarse-grained scheme minimizes communication *rounds*:

1. every node reduces its local edge slice to a spanning forest
   (<= n-1 edges) with a sequential union-find pass;
2. ``log2 p`` merge rounds: active nodes pair up, one ships its forest
   to the other in a single coalesced message, and the receiver runs a
   sequential union-find over the union (<= 2(n-1) edges), keeping a new
   forest — half the nodes go idle each round;
3. the last node computes labels and broadcasts them.

Exactly ``O(log p)`` communication rounds, independent of ``m`` — and
exactly the structure the paper criticizes: every merge round puts a
*sequential* pass over ``O(n)`` irregular data on the critical path
while the other nodes idle, so on deep memory hierarchies the total time
is bounded below by ``log p`` sequential union-finds no matter how many
processors exist.  ``benchmarks/bench_thesis_cgm_vs_pgas.py`` regenerates
the comparison that motivates the paper's whole approach.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.results import CCResult, SolveInfo
from ..graph.edgelist import EdgeList
from ..runtime.machine import MachineConfig, hps_cluster
from ..runtime.partitioned import even_offsets
from ..runtime.runtime import PGASRuntime
from ..runtime.trace import Category
from .sequential import FIND_PATH_ACCESSES

__all__ = ["solve_cc_cgm"]

#: An edge travels as an (u, v) pair — two words.
EDGE_BYTES = 16


def _spanning_forest(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spanning forest (as endpoint arrays) of the given edge set."""
    from scipy import sparse
    from scipy.sparse import csgraph

    keep = u != v
    u, v = u[keep], v[keep]
    if u.size == 0:
        return u, v
    mat = sparse.coo_matrix((np.ones(u.size), (u, v)), shape=(n, n)).tocsr()
    tree = csgraph.minimum_spanning_tree(mat + mat.T).tocoo()
    return tree.row.astype(np.int64), tree.col.astype(np.int64)


def _charge_union_find(rt: PGASRuntime, thread: int, m_edges: int, n: int) -> None:
    """Sequential union-find over ``m_edges`` edges charged to ONE thread
    (the serial merge step on the critical path)."""
    ws = n * 8.0
    per_access = float(rt.cost.miss_rate(ws)) * rt.machine.memory.latency + (
        8.0 / rt.machine.memory.bandwidth
    )
    accesses = 2.0 * m_edges * FIND_PATH_ACCESSES
    rt.charge_thread(Category.IRREGULAR, thread, accesses * per_access)
    rt.charge_thread(Category.WORK, thread, 4.0 * m_edges * rt.machine.cpu.op_time)
    rt.counters.add(local_random_accesses=int(accesses))


def solve_cc_cgm(graph: EdgeList, machine: MachineConfig | None = None) -> CCResult:
    """Connected components with the round-minimizing CGM scheme."""
    machine = machine if machine is not None else hps_cluster()
    wall = time.perf_counter()
    rt = PGASRuntime(machine)
    n, m = graph.n, graph.m
    if n == 0:
        info = SolveInfo(machine, "cc-cgm", 0.0, time.perf_counter() - wall, 0, rt.trace)
        return CCResult(np.empty(0, dtype=np.int64), info)

    p = machine.nodes
    first_thread_of = [node * machine.threads_per_node for node in range(p)]

    # -- round 0: each node reduces its slice to a forest (in parallel) ------
    offsets = even_offsets(m, p)
    forests: list[tuple[np.ndarray, np.ndarray]] = []
    for node in range(p):
        lo, hi = offsets[node], offsets[node + 1]
        fu, fv = _spanning_forest(n, graph.u[lo:hi], graph.v[lo:hi])
        forests.append((fu, fv))
        _charge_union_find(rt, first_thread_of[node], int(hi - lo), n)
    rt.counters.add(iterations=1)
    rt.barrier()

    # -- log2(p) merge rounds -------------------------------------------------
    active = list(range(p))
    rounds = 0
    while len(active) > 1:
        rounds += 1
        rt.counters.add(iterations=1)
        nxt = []
        for i in range(0, len(active) - 1, 2):
            recv, send = active[i], active[i + 1]
            su, sv = forests[send]
            ru, rv = forests[recv]
            # One coalesced message: the sender's whole forest.
            msg_bytes = int(su.size) * EDGE_BYTES
            rt.charge_thread(
                Category.COMM,
                first_thread_of[recv],
                float(rt.cost.remote_message_time(msg_bytes)),
            )
            rt.counters.add(remote_messages=1, remote_bytes=msg_bytes)
            mu = np.concatenate([ru, su])
            mv = np.concatenate([rv, sv])
            forests[recv] = _spanning_forest(n, mu, mv)
            _charge_union_find(rt, first_thread_of[recv], int(mu.size), n)
            nxt.append(recv)
        if len(active) % 2 == 1:
            nxt.append(active[-1])
        active = nxt
        rt.barrier()

    # -- final labels on the last node, then broadcast -------------------------
    root = active[0]
    fu, fv = forests[root]
    _charge_union_find(rt, first_thread_of[root], int(fu.size) + n, n)
    if fu.size:
        from scipy import sparse
        from scipy.sparse import csgraph

        mat = sparse.coo_matrix((np.ones(fu.size), (fu, fv)), shape=(n, n)).tocsr()
        _, comp = csgraph.connected_components(mat + mat.T, directed=False)
        mins = np.full(int(comp.max()) + 1, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(mins, comp, np.arange(n, dtype=np.int64))
        labels = mins[comp]
    else:
        labels = np.arange(n, dtype=np.int64)
    # Broadcast: one label-array message per peer node.
    bcast = float(rt.cost.remote_message_time(n * 8))
    rt.charge_thread(Category.COMM, first_thread_of[root], bcast * max(p - 1, 0))
    rt.counters.add(remote_messages=max(p - 1, 0), remote_bytes=(p - 1) * n * 8)
    rt.barrier()

    info = SolveInfo(
        machine, "cc-cgm", rt.elapsed, time.perf_counter() - wall, rounds + 1, rt.trace
    )
    return CCResult(labels, info)
