"""Verification of minimum spanning forests.

The total weight of a minimum spanning forest is unique even when the
forest itself is not (equal-weight edges), so verification compares:

* structural validity — the chosen edges exist, are distinct, form a
  forest (no cycles), and span exactly the graph's components;
* optimality — total weight equals :func:`msf_reference`'s.

:func:`msf_edge_ids` is Borůvka in NumPy over edges ranked once by
``(weight, edge id)``, merging each round's components with
:func:`~repro.graph.validation.forest_roots`; the acyclicity count uses
the same code.  The ranks are distinct, so its forest is the unique
minimum one under that order: the sequential baselines
(:mod:`repro.mst.sequential`) take their answers from it, and
:func:`msf_reference` reduces it to what a certificate compares.
"""

from __future__ import annotations

import numpy as np

from ..errors import VerificationError
from ..graph.edgelist import EdgeList
from ..graph.validation import count_components_reference, forest_roots

__all__ = ["msf_edge_ids", "msf_reference", "check_spanning_forest"]


def msf_edge_ids(graph: EdgeList) -> np.ndarray:
    """Sorted int64 ids of the minimum spanning forest under the
    ``(weight, edge id)`` order.

    Borůvka over ranks: the edges are sorted once by ``(weight, edge
    id)``, so keys are distinct and any weight range works.  Each round
    every component picks its least-ranked live edge, the picks join
    the forest, and :func:`forest_roots` merges the components they
    join."""
    if graph.w is None:
        raise VerificationError("MST verification needs a weighted graph")
    order = np.argsort(graph.w, kind="stable")
    u, v = graph.u[order], graph.v[order]
    rank = np.arange(graph.m, dtype=np.int64)
    picks = [rank[:0]]
    while True:
        live = u != v
        u, v, rank = u[live], v[live], rank[live]
        if not rank.size:
            return np.sort(order[np.concatenate(picks)]).astype(np.int64, copy=False)
        best = np.full(graph.n, graph.m)  # m: above every rank
        np.minimum.at(best, u, rank)
        np.minimum.at(best, v, rank)
        picked = (best[u] == rank) | (best[v] == rank)
        picks.append(rank[picked])
        roots = forest_roots(graph.n, u[picked], v[picked])
        u, v = roots[u], roots[v]


def msf_reference(graph: EdgeList) -> tuple[int, int]:
    """``(components, weight)`` of the graph's minimum spanning forests:
    all :func:`check_spanning_forest` needs beyond the graph, so a caller
    checking many forests of one graph computes it once.  A spanning
    forest has ``n - components`` edges."""
    edge_ids = msf_edge_ids(graph)
    return graph.n - edge_ids.size, int(graph.w[edge_ids].sum())


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
