"""Verification of minimum spanning forests.

The total weight of a minimum spanning forest is unique even when the
forest itself is not (equal-weight edges), so verification compares:

* structural validity — the chosen edges exist, are distinct, form a
  forest (no cycles), and span exactly the graph's components;
* optimality — total weight equals :func:`msf_reference`'s.

:func:`msf_reference` is Borůvka in NumPy over edges ranked once by
``(weight, edge id)``, merging each round's components with
:func:`~repro.graph.validation.forest_roots`; the acyclicity count uses
the same code, so verification never loads SciPy.  :func:`scipy_msf`
serves the sequential baseline (:mod:`repro.mst.sequential`), which
needs the forest's edges: scipy's sparse MST drops explicit zeros, so
it runs on ``w + 1`` and shifts back (an affine weight shift does not
change which forests are minimum).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import VerificationError
from ..graph.edgelist import EdgeList
from ..graph.validation import count_components_reference, forest_roots

if TYPE_CHECKING:  # pragma: no cover
    from scipy import sparse

__all__ = ["scipy_msf", "msf_reference", "check_spanning_forest"]


def _shifted_matrix(graph: EdgeList) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Symmetric CSR of the min-weight-deduplicated graph with weights
    shifted by +1; also returns the kept global edge positions."""
    if graph.w is None:
        raise VerificationError("MST verification needs a weighted graph")
    from scipy import sparse

    keep = graph.dedup_min_weight_index()
    u, v, w = graph.u[keep], graph.v[keep], graph.w[keep]
    mat = sparse.coo_matrix(
        ((w + 1).astype(np.float64), (u, v)), shape=(graph.n, graph.n)
    ).tocsr()
    return mat + mat.T, keep


def scipy_msf(graph: EdgeList) -> tuple[np.ndarray, int]:
    """Reference minimum spanning forest via scipy.

    Returns ``(edge_ids, total_weight)`` where ``edge_ids`` index the
    *input* edge list (each chosen undirected pair mapped back to its
    minimum-weight earliest occurrence).
    """
    if graph.n == 0 or graph.m == 0:
        return np.empty(0, dtype=np.int64), 0
    from scipy.sparse import csgraph

    mat, keep = _shifted_matrix(graph)
    tree = csgraph.minimum_spanning_tree(mat).tocoo()
    if tree.nnz == 0:
        return np.empty(0, dtype=np.int64), 0
    lo = np.minimum(tree.row, tree.col).astype(np.int64)
    hi = np.maximum(tree.row, tree.col).astype(np.int64)
    chosen_keys = lo * np.int64(graph.n) + hi
    sub = graph.take(keep)
    sub_keys = sub.canonical_pairs()
    order = np.argsort(sub_keys)
    pos = order[np.searchsorted(sub_keys[order], chosen_keys)]
    if not np.array_equal(sub_keys[pos], chosen_keys):  # pragma: no cover - internal
        raise VerificationError("failed to map scipy MST edges back to the input")
    edge_ids = keep[pos]
    total = int(graph.w[edge_ids].sum())
    return np.sort(edge_ids), total


def msf_reference(graph: EdgeList) -> tuple[int, int]:
    """``(components, weight)`` of the graph's minimum spanning forests:
    all :func:`check_spanning_forest` needs beyond the graph, so a caller
    checking many forests of one graph computes it once.

    Borůvka over ranks: the edges are sorted once by ``(weight, edge
    id)``, so keys are distinct and any weight range works.  Each round
    every component picks its least-ranked live edge, the picks are
    added to the forest, and :func:`forest_roots` merges the components
    they join (a spanning forest has ``n - components`` edges)."""
    if graph.w is None:
        raise VerificationError("MST verification needs a weighted graph")
    order = np.argsort(graph.w, kind="stable")
    weights = graph.w[order]
    u, v = graph.u[order], graph.v[order]
    rank = np.arange(graph.m)
    edges = weight = 0
    while True:
        live = u != v
        u, v, rank = u[live], v[live], rank[live]
        if not rank.size:
            return graph.n - edges, weight
        best = np.full(graph.n, graph.m)  # m: above every rank
        np.minimum.at(best, u, rank)
        np.minimum.at(best, v, rank)
        picked = (best[u] == rank) | (best[v] == rank)
        edges += int(np.count_nonzero(picked))
        weight += int(weights[rank[picked]].sum())
        roots = forest_roots(graph.n, u[picked], v[picked])
        u, v = roots[u], roots[v]


def check_spanning_forest(graph: EdgeList, edge_ids, reference: tuple | None = None) -> None:
    """Raise :class:`VerificationError` unless ``edge_ids`` is a minimum
    spanning forest of ``graph``; ``reference`` is :func:`msf_reference`
    of the same graph when the caller already holds it."""
    if graph.w is None:
        raise VerificationError("MST verification needs a weighted graph")
    edge_ids = np.asarray(edge_ids, dtype=np.int64)
    if edge_ids.size != np.unique(edge_ids).size:
        raise VerificationError("forest contains a duplicate edge id")
    if edge_ids.size and (edge_ids.min() < 0 or edge_ids.max() >= graph.m):
        raise VerificationError("edge id out of range")
    ncomp_graph, expected = msf_reference(graph) if reference is None else reference

    # k distinct edges are acyclic exactly when they leave n - k
    # components, and then span exactly when that is the graph's count.
    ncomp_forest = count_components_reference(graph.take(edge_ids))
    if ncomp_forest != graph.n - edge_ids.size:
        raise VerificationError("an edge closes a cycle in the claimed forest")
    if ncomp_forest != ncomp_graph:
        raise VerificationError(
            f"forest leaves {ncomp_forest} components but the graph has {ncomp_graph}"
        )

    total = int(graph.w[edge_ids].sum()) if edge_ids.size else 0
    if total != expected:
        raise VerificationError(f"forest weight {total} != minimum {expected}")
