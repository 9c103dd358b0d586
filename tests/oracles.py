"""Test oracles: independent answers the package's solvers are checked against.

The package computes every answer with NumPy alone.  The oracles here are
deliberately other code: networkx and SciPy (installed with the ``test``
extra, never imported by ``src/repro``) and literal pure-Python loops
that mirror the paper's pseudo-code.  The Python loops do ``O(n + m)``
interpreted work per iteration, so keep their inputs small (n up to a
few hundred).
"""

from __future__ import annotations

import heapq

import networkx as nx
import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.cc.common import check_converged
from repro.graph import EdgeList

# -- conversions ---------------------------------------------------------------


def to_networkx(graph: EdgeList) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    if graph.w is not None:
        g.add_weighted_edges_from(zip(graph.u.tolist(), graph.v.tolist(), graph.w.tolist()))
    else:
        g.add_edges_from(zip(graph.u.tolist(), graph.v.tolist()))
    return g


def dedup_min_weight_index(graph: EdgeList) -> np.ndarray:
    """Ascending int64 edge positions that keep each undirected pair once,
    with its minimum weight (ties, and unweighted graphs, keep the
    earliest edge)."""
    keys = graph.canonical_pairs()
    w = graph.w if graph.w is not None else np.zeros(graph.m, dtype=np.int64)
    order = np.lexsort((np.arange(graph.m), w, keys))
    ranked = keys[order]
    first = np.ones(graph.m, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    return np.sort(order[first]).astype(np.int64)


def to_scipy(graph: EdgeList) -> sparse.csr_matrix:
    """Symmetric CSR adjacency: each undirected pair once, carrying its
    minimum weight (1 when unweighted); SciPy would sum duplicates."""
    keep = dedup_min_weight_index(graph)
    data = graph.w[keep] if graph.w is not None else np.ones(keep.size)
    upper = sparse.coo_matrix(
        (data.astype(np.float64), (graph.u[keep], graph.v[keep])), shape=(graph.n, graph.n)
    ).tocsr()
    return upper + upper.T


# -- SciPy ---------------------------------------------------------------------


def scipy_msf(graph: EdgeList) -> tuple[np.ndarray, int]:
    """``(edge_ids, total_weight)`` of SciPy's minimum spanning forest,
    each chosen pair mapped back to its minimum-weight earliest edge.

    SciPy drops explicit zeros, so the forest is computed on ``w + 1``
    (an affine weight shift does not change which forests are minimum)."""
    if graph.n == 0 or graph.m == 0:
        return np.empty(0, dtype=np.int64), 0
    tree = csgraph.minimum_spanning_tree(to_scipy(graph.with_weights(graph.w + 1))).tocoo()
    lo = np.minimum(tree.row, tree.col).astype(np.int64)
    hi = np.maximum(tree.row, tree.col).astype(np.int64)
    chosen = lo * np.int64(graph.n) + hi
    keep = dedup_min_weight_index(graph)
    keys = graph.canonical_pairs()[keep]
    order = np.argsort(keys)
    edge_ids = keep[order[np.searchsorted(keys[order], chosen)]]
    assert np.array_equal(graph.canonical_pairs()[edge_ids], chosen)
    return np.sort(edge_ids), int(graph.w[edge_ids].sum())


# -- pure Python ---------------------------------------------------------------


def reference_cc_labels(graph: EdgeList) -> np.ndarray:
    """Literal graft-and-shortcut CC (the paper's Fig. 1, left).

    Concurrent writes within one grafting step are resolved by minimum,
    as in the vectorized solvers: proposals are buffered and the
    smallest per target is applied."""
    n = graph.n
    d = list(range(n))
    iteration = 0
    while True:
        iteration += 1
        check_converged(iteration, n, "reference CC grafting")
        # Grafting from a snapshot.
        snapshot = d[:]
        proposals: dict[int, int] = {}
        for u, v in zip(graph.u.tolist(), graph.v.tolist()):
            du, dv = snapshot[u], snapshot[v]
            if du < dv and snapshot[dv] == dv:
                if dv not in proposals or du < proposals[dv]:
                    proposals[dv] = du
            elif dv < du and snapshot[du] == du:
                if du not in proposals or dv < proposals[du]:
                    proposals[du] = dv
        changed = False
        for target, value in proposals.items():
            if value < d[target]:
                d[target] = value
                changed = True
        # Shortcut to rooted stars.
        guard = 0
        while True:
            guard += 1
            check_converged(guard, n, "reference CC shortcut")
            moved = False
            for i in range(n):
                if d[d[i]] != d[i]:
                    d[i] = d[d[i]]
                    moved = True
            if not moved:
                break
        if not changed:
            return np.asarray(d, dtype=np.int64)


def reference_union_find_labels(graph: EdgeList) -> np.ndarray:
    """Sequential union-find with path halving — the textbook sequential
    CC the paper's speedup baselines are measured against."""
    n = graph.n
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    for u, v in zip(graph.u.tolist(), graph.v.tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            # Union by smaller label so results match the min convention.
            if ru < rv:
                parent[rv] = ru
            else:
                parent[ru] = rv
    return np.asarray([find(i) for i in range(n)], dtype=np.int64)


def reference_kruskal(graph: EdgeList) -> tuple[np.ndarray, int]:
    """Kruskal with the library's ``(weight, edge id)`` tie-break.

    Returns ``(edge_ids, total_weight)`` — the unique minimum spanning
    forest under that order, so tests can compare edge sets, not just
    totals, when weights collide.
    """
    assert graph.w is not None, "reference Kruskal needs weights"
    parent = list(range(graph.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    order = np.lexsort((np.arange(graph.m), graph.w))
    chosen: list[int] = []
    total = 0
    for e in order.tolist():
        a, b = find(int(graph.u[e])), find(int(graph.v[e]))
        if a != b:
            parent[a] = b
            chosen.append(e)
            total += int(graph.w[e])
    return np.asarray(sorted(chosen), dtype=np.int64), total


def reference_prim_weight(graph: EdgeList) -> int:
    """Total minimum-spanning-forest weight via Prim with a binary heap
    (run once per component): a second opinion on Kruskal's total."""
    assert graph.w is not None, "reference Prim needs weights"
    adj: list[list[tuple[int, int]]] = [[] for _ in range(graph.n)]
    for e in range(graph.m):
        a, b, w = int(graph.u[e]), int(graph.v[e]), int(graph.w[e])
        if a != b:
            adj[a].append((w, b))
            adj[b].append((w, a))
    seen = [False] * graph.n
    total = 0
    for start in range(graph.n):
        if seen[start]:
            continue
        seen[start] = True
        heap: list[tuple[int, int]] = list(adj[start])
        heapq.heapify(heap)
        while heap:
            w, x = heapq.heappop(heap)
            if seen[x]:
                continue
            seen[x] = True
            total += w
            for item in adj[x]:
                if not seen[item[1]]:
                    heapq.heappush(heap, item)
    return total
