"""BFS solvers: collective, naive-UPC, and sequential.

Vertex-centric, level-synchronous: each thread owns a blocked slice of
vertices and their CSR adjacency rows.  Per level, owners enumerate the
neighbors of their frontier vertices, and the discovered targets are
written into the distance array with a priority (minimum) write —
``SetD`` in the collective version, per-element blocking writes in the
naive one.

Unreached vertices keep distance :data:`UNREACHED`.
"""

from __future__ import annotations

import time

import numpy as np

from ..collectives.setd import setd
from ..core.optimizations import OptimizationFlags
from ..core.results import SolveInfo
from ..errors import GraphError
from ..graph.csr import CSRAdjacency
from ..graph.edgelist import EdgeList
from ..runtime.machine import MachineConfig, hps_cluster, sequential_machine
from ..runtime.partitioned import PartitionedArray
from ..runtime.runtime import PGASRuntime
from ..runtime.trace import Category
from ..mst.collective import partition_by_owner

__all__ = ["UNREACHED", "solve_bfs_collective", "solve_bfs_naive_upc", "solve_bfs_sequential"]

#: Distance assigned to vertices the source cannot reach.
UNREACHED = np.int64(np.iinfo(np.int64).max)


def _check_source(graph: EdgeList, source: int) -> None:
    if not 0 <= source < graph.n:
        raise GraphError(f"source {source} out of range for n={graph.n}")


def _frontier_partition(dist, level: int, shared) -> PartitionedArray:
    """Current frontier vertices, partitioned by owning thread."""
    frontier = np.flatnonzero(dist == level)
    return partition_by_owner(frontier, shared)


def _solve_bfs_level_synchronous(
    graph: EdgeList,
    source: int,
    machine: MachineConfig,
    style: str,
    opts: OptimizationFlags,
    tprime: int,
) -> tuple[np.ndarray, SolveInfo]:
    _check_source(graph, source)
    wall = time.perf_counter()
    rt = PGASRuntime(machine)
    n = graph.n
    adj = CSRAdjacency.from_edgelist(graph)

    dist_init = np.full(n, UNREACHED, dtype=np.int64)
    dist_init[source] = 0
    dist = rt.shared_array(dist_init)
    # Building the CSR costs two streamed passes over 2m edge records.
    rt.local_stream(np.full(rt.s, 4.0 * graph.m / rt.s), Category.WORK)

    level = 0
    while True:
        frontier = _frontier_partition(dist.data, level, dist)
        any_frontier = frontier.sizes() > 0
        if not rt.allreduce_flag(any_frontier):
            break
        rt.counters.add(iterations=1)
        # Owners enumerate their frontier vertices' adjacency rows.
        targets_flat = adj.neighbors_of(frontier.data)
        per_thread_neighbors = np.zeros(rt.s, dtype=np.int64)
        for i in range(rt.s):
            per_thread_neighbors[i] = int(adj.degree(frontier.segment(i)).sum())
        rt.local_stream(per_thread_neighbors.astype(np.float64), Category.WORK)
        offsets = np.zeros(rt.s + 1, dtype=np.int64)
        np.cumsum(per_thread_neighbors, out=offsets[1:])
        targets = PartitionedArray(targets_flat, offsets)
        values = np.full(targets.total, level + 1, dtype=np.int64)
        if style == "collective":
            setd(rt, dist, targets, values, opts, tprime=tprime)
        else:
            rt.fine_grained_write(dist, targets, values, combine="min")
        level += 1
        if level > n:
            raise GraphError("BFS exceeded n levels — adjacency is corrupt")

    labels = dist.data.copy()
    info = SolveInfo(
        machine, f"bfs-{style}", rt.elapsed, time.perf_counter() - wall, level, rt.trace
    )
    return labels, info


def solve_bfs_collective(
    graph: EdgeList,
    source: int = 0,
    machine: MachineConfig | None = None,
    opts: OptimizationFlags = OptimizationFlags.all(),
    tprime: int = 1,
) -> tuple[np.ndarray, SolveInfo]:
    """Level-synchronous BFS with coalesced SetD writes.

    Returns ``(distances, info)``; one collective round per level, so
    ``info.iterations`` equals the source's eccentricity + 1 — the O(d)
    bound the paper contrasts with its poly-log CC.
    """
    machine = machine if machine is not None else hps_cluster()
    # BFS distances can legitimately update vertex 0 (the source default
    # is 0 but any vertex may be relaxed); never drop hot writes.
    return _solve_bfs_level_synchronous(
        graph, source, machine, "collective", opts.with_(offload=False), tprime
    )


def solve_bfs_naive_upc(
    graph: EdgeList,
    source: int = 0,
    machine: MachineConfig | None = None,
) -> tuple[np.ndarray, SolveInfo]:
    """Literal translation: one blocking remote write per discovered edge."""
    machine = machine if machine is not None else hps_cluster()
    return _solve_bfs_level_synchronous(
        graph, source, machine, "naive", OptimizationFlags.none(), 1
    )


def solve_bfs_sequential(
    graph: EdgeList,
    source: int = 0,
    machine: MachineConfig | None = None,
) -> tuple[np.ndarray, SolveInfo]:
    """Queue-based sequential BFS (cost-modeled; scipy-executed)."""
    from scipy.sparse import csgraph

    _check_source(graph, source)
    machine = machine if machine is not None else sequential_machine()
    wall = time.perf_counter()
    rt = PGASRuntime(machine)
    n, m = graph.n, graph.m
    # One pass over the adjacency plus one irregular visit per vertex.
    rt.local_stream(float(2 * m + n), Category.WORK)
    rt.local_random_access(float(2 * m), n * 8.0, Category.IRREGULAR)
    rt.counters.add(iterations=1)

    if m:
        dist_f = csgraph.shortest_path(
            graph.to_scipy() != 0, method="D", unweighted=True, indices=source
        )
        dist = np.full(n, UNREACHED, dtype=np.int64)
        reached = ~np.isinf(dist_f)
        dist[reached] = dist_f[reached].astype(np.int64)
    else:
        dist = np.full(n, UNREACHED, dtype=np.int64)
        dist[source] = 0
    info = SolveInfo(machine, "bfs-seq", rt.elapsed, time.perf_counter() - wall, 1, rt.trace)
    return dist, info
