"""CSR adjacency built from edge lists.

Vertex-centric algorithms (BFS) need neighbor enumeration; this builds
the standard compressed-sparse-row structure, symmetrized by default
(undirected graphs), with a fully vectorized construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GraphError
from .edgelist import EdgeList

__all__ = ["CSRAdjacency"]


def _stable_order(ids: np.ndarray, n: int) -> np.ndarray:
    """``np.argsort(ids, kind="stable")`` for ids in ``[0, n)``, as LSD
    radix passes over 16-bit digits: NumPy radix-sorts keys of 16 bits
    or less, and would merge-sort the ids themselves."""
    order = np.argsort(ids.astype(np.uint16), kind="stable")
    for shift in range(16, max(n - 1, 0).bit_length(), 16):
        digit = (ids >> shift).astype(np.uint16)
        order = order[np.argsort(digit[order], kind="stable")]
    return order


@dataclass
class CSRAdjacency:
    """Adjacency of an undirected graph: ``indices[indptr[v]:indptr[v+1]]``
    are ``v``'s neighbors (with multiplicity; self-loops dropped)."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_edgelist(cls, graph: EdgeList) -> "CSRAdjacency":
        keep = graph.u != graph.v
        u = np.concatenate([graph.u[keep], graph.v[keep]])
        v = np.concatenate([graph.v[keep], graph.u[keep]])
        indices = v[_stable_order(u, graph.n)]
        counts = np.bincount(u, minlength=graph.n)
        indptr = np.zeros(graph.n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(graph.n, indptr, indices.astype(np.int64))

    def degree(self, vertices: np.ndarray) -> np.ndarray:
        vertices = np.asarray(vertices, dtype=np.int64)
        return self.indptr[vertices + 1] - self.indptr[vertices]

    def neighbors_of(self, vertices: np.ndarray) -> np.ndarray:
        """All neighbors of the given vertices, concatenated (vectorized
        multi-row CSR slice)."""
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            return np.empty(0, dtype=np.int64)
        if vertices.min() < 0 or vertices.max() >= self.n:
            raise GraphError("vertex id out of range")
        starts = self.indptr[vertices]
        lengths = self.degree(vertices)
        total = int(lengths.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        row_starts = np.zeros(vertices.size, dtype=np.int64)
        np.cumsum(lengths[:-1], out=row_starts[1:])
        offset_within_row = np.arange(total, dtype=np.int64) - np.repeat(row_starts, lengths)
        positions = np.repeat(starts, lengths) + offset_within_row
        return self.indices[positions]

    def __post_init__(self) -> None:
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        if self.indptr.shape != (self.n + 1,) or self.indptr[0] != 0:
            raise GraphError("malformed indptr")
        if self.indptr[-1] != self.indices.shape[0]:
            raise GraphError("indptr does not cover indices")
