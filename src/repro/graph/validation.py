"""Structural checks over edge lists, and the answer certificates.

The structural checks serve tests, the generators' self-checks and the
examples; the certificates (:func:`check_connected_counts`,
:func:`check_bfs_levels`) decide in a few O(m) passes whether an answer
is *the* answer, for ``validate=True``, the tests and the service.  Each raises
:class:`~repro.errors.GraphError` with a specific message, or returns a
boolean when called through :func:`is_simple` / :func:`has_self_loops`.

What the CC and MST certificates compare against, the component count
and the minimum spanning forest's weight, comes from
:func:`forest_roots` (here and in :mod:`repro.mst.verify`): a few NumPy
passes, so no verification loads SciPy.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError
from .edgelist import EdgeList

__all__ = [
    "check_simple",
    "is_simple",
    "has_self_loops",
    "check_connected_counts",
    "check_bfs_levels",
    "count_components_reference",
    "component_sizes",
    "forest_roots",
]


def has_self_loops(graph: EdgeList) -> bool:
    return bool(np.any(graph.u == graph.v))


def is_simple(graph: EdgeList) -> bool:
    """True when the graph has no self-loops and no duplicate undirected
    edges."""
    if has_self_loops(graph):
        return False
    keys = graph.canonical_pairs()
    return np.unique(keys).size == graph.m


def check_simple(graph: EdgeList) -> None:
    """Raise if the graph is not simple."""
    if has_self_loops(graph):
        raise GraphError("graph contains self-loops")
    keys = graph.canonical_pairs()
    if np.unique(keys).size != graph.m:
        raise GraphError("graph contains duplicate undirected edges")


def forest_roots(n: int, u, v) -> np.ndarray:
    """Each vertex's root under the edges ``(u[i], v[i])``: the smallest
    vertex of its component.

    Repeats two steps until no edge joins two roots.  Every root hooks
    under the smallest root it shares a live edge with (``np.minimum.at``
    onto the larger root of each edge), then pointer jumping runs until
    every tree is a star.  Labels only decrease, so the parent pointers
    never close a cycle, and the root left in each component is its
    smallest vertex.  Edges inside one tree are dropped as they appear.
    """
    parent = np.arange(n, dtype=np.intp)
    u, v = np.asarray(u), np.asarray(v)
    while u.size:
        ru, rv = parent[u], parent[v]
        live = ru != rv
        if not live.any():
            break
        u, v = ru[live], rv[live]
        np.minimum.at(parent, np.maximum(u, v), np.minimum(u, v))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    return parent


def count_components_reference(graph: EdgeList) -> int:
    """The component count :func:`check_connected_counts` compares a
    labeling against, in tests and in the service alike: the number of
    roots :func:`forest_roots` leaves."""
    roots = forest_roots(graph.n, graph.u, graph.v)
    return int(np.count_nonzero(roots == np.arange(graph.n)))


def component_sizes(labels: np.ndarray) -> np.ndarray:
    """Sizes of the components given a label array (labels need not be
    contiguous; sizes are returned sorted descending)."""
    labels = np.asarray(labels)
    _, counts = np.unique(labels, return_counts=True)
    return np.sort(counts)[::-1]


def check_connected_counts(labels, graph: EdgeList, expected: int | None = None) -> None:
    """Verify that a CC labeling is the graph's component structure:

    * endpoints of every edge share a label;
    * the number of distinct labels equals the component count
      (``expected`` if the caller holds it, else computed here).
    """
    labels = np.asarray(labels)
    if labels.shape != (graph.n,):
        raise GraphError(f"labels must have shape ({graph.n},), got {labels.shape}")
    if graph.m and np.any(labels[graph.u] != labels[graph.v]):
        raise GraphError("labeling splits an edge across components")
    if expected is None:
        expected = count_components_reference(graph)
    actual = int(np.unique(labels).size) if graph.n else 0
    if actual != expected:
        raise GraphError(f"labeling has {actual} components, reference says {expected}")


def check_bfs_levels(dist: np.ndarray, graph: EdgeList, source: int, unreached: int) -> None:
    """Verify that ``dist`` holds every vertex's BFS level from ``source``
    (``unreached`` where there is no path): the source is at level 0; no
    edge joins a reached and an unreached vertex; levels differ by at
    most one along an edge (none exceeds the distance); every reached
    vertex but the source has a neighbour one level down (none is below
    it, no other component is reached; int64 wrap cannot forge the chain)."""
    dist = np.asarray(dist)
    if dist.shape != (graph.n,):
        raise GraphError(f"levels must have shape ({graph.n},), got {dist.shape}")
    if not 0 <= source < graph.n:
        raise GraphError(f"source {source} out of range for n={graph.n}")
    if dist[source] != 0:
        raise GraphError(f"source {source} is at level {int(dist[source])}, not 0")
    du, dv = dist[graph.u], dist[graph.v]
    if np.any((du == unreached) != (dv == unreached)):
        raise GraphError("an edge joins a reached and an unreached vertex")
    step = du - dv  # 0 where both ends carry the sentinel
    if np.any((step > 1) | (step < -1)):
        raise GraphError("levels differ by more than one along an edge")
    has_parent = np.zeros(graph.n, dtype=bool)
    has_parent[graph.u[step == 1]] = True
    has_parent[graph.v[step == -1]] = True
    has_parent[source] = True
    orphans = np.flatnonzero((dist != unreached) & ~has_parent)
    if orphans.size:
        v = int(orphans[0])
        raise GraphError(f"vertex {v} at level {int(dist[v])} has no neighbour one level down")
