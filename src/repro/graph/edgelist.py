"""Edge-list graph container.

The paper's algorithms take an edge list as input ("CC takes an edge list
as input"); this module provides the container used across the library:
parallel ``u``/``v`` endpoint arrays stored at the id width of ``n``
(int32 below ``2**31`` vertices, see :func:`~repro.runtime.shared_array.
id_dtype`), an optional int64 weight array for MST, and the vertex count
``n``.

The container is deliberately array-oriented (no per-edge objects): the
simulated SPMD implementations operate on NumPy slices of it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from ..errors import GraphError
from ..runtime.shared_array import id_dtype

__all__ = ["EdgeList", "first_occurrences"]


def first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Ascending positions of each distinct key's first occurrence in
    ``keys`` — ``np.sort(np.unique(keys, return_index=True)[1])``
    without the stable sort: an unstable argsort groups equal keys, and
    the minimum position within each group is its first occurrence."""
    if keys.size == 0:
        return np.empty(0, dtype=np.intp)
    order = np.argsort(keys)
    ranked = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    first = np.zeros(keys.size, dtype=bool)
    first[np.minimum.reduceat(order, starts)] = True
    return np.flatnonzero(first)


def _integer_ids(a) -> np.ndarray:
    """``a`` as an integer array, int64 unless it already is one."""
    a = np.asarray(a)
    return a if a.dtype.kind in "iu" else a.astype(np.int64)


@dataclass
class EdgeList:
    """An undirected multigraph given as arrays of endpoints.

    Attributes
    ----------
    n:
        Number of vertices; ids are ``0 .. n-1``.
    u, v:
        Endpoint arrays (same length ``m``), stored as ``id_dtype(n)``:
        int32 while ``n < 2**31``, else int64.
    w:
        Optional edge weights (int64, same length), present for MST
        inputs.  The paper draws weights "randomly chosen between 0 and
        the maximum integer number".
    """

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray | None = None

    def __post_init__(self) -> None:
        # Range-check at the input's own width, then narrow: a cast first
        # could wrap an out-of-range endpoint into [0, n).
        self.u = _integer_ids(self.u)
        self.v = _integer_ids(self.v)
        if self.w is not None:
            self.w = np.ascontiguousarray(self.w, dtype=np.int64)
        self.validate()
        ids = id_dtype(self.n)
        self.u = np.ascontiguousarray(self.u, dtype=ids)
        self.v = np.ascontiguousarray(self.v, dtype=ids)

    # -- invariants -----------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`GraphError` on malformed inputs."""
        if self.n < 0:
            raise GraphError(f"negative vertex count {self.n}")
        if self.u.ndim != 1 or self.v.ndim != 1 or self.u.shape != self.v.shape:
            raise GraphError("u and v must be 1-D arrays of equal length")
        if self.w is not None and self.w.shape != self.u.shape:
            raise GraphError("w must match the edge count")
        if self.m:
            lo = min(int(self.u.min()), int(self.v.min()))
            hi = max(int(self.u.max()), int(self.v.max()))
            if lo < 0 or hi >= self.n:
                raise GraphError(
                    f"edge endpoints out of range: saw [{lo}, {hi}] for n={self.n}"
                )

    @property
    def m(self) -> int:
        """Number of edges."""
        return int(self.u.shape[0])

    @property
    def weighted(self) -> bool:
        return self.w is not None

    @property
    def density(self) -> float:
        """Average edge density ``m / n`` (the quantity on the paper's
        Fig. 2 x-axis)."""
        return self.m / self.n if self.n else 0.0

    # -- transforms -------------------------------------------------------------

    def canonical_pairs(self) -> np.ndarray:
        """Each edge as ``(min, max)`` packed into one int64 key —
        identical for both orientations of an undirected edge."""
        lo = np.minimum(self.u, self.v)
        hi = np.maximum(self.u, self.v)
        return lo * np.int64(self.n) + hi

    def deduplicated(self) -> "EdgeList":
        """Remove duplicate undirected edges (keeping the first
        occurrence, which for weighted graphs keeps that edge's weight)."""
        first = first_occurrences(self.canonical_pairs())
        w = self.w[first] if self.w is not None else None
        return EdgeList(self.n, self.u[first], self.v[first], w)

    def without_self_loops(self) -> "EdgeList":
        keep = self.u != self.v
        w = self.w[keep] if self.w is not None else None
        return EdgeList(self.n, self.u[keep], self.v[keep], w)

    def symmetrized(self) -> "EdgeList":
        """Both orientations of every edge (used by per-vertex scans)."""
        u = np.concatenate([self.u, self.v])
        v = np.concatenate([self.v, self.u])
        w = np.concatenate([self.w, self.w]) if self.w is not None else None
        return EdgeList(self.n, u, v, w)

    def permuted(self, perm: np.ndarray) -> "EdgeList":
        """Relabel vertices: vertex ``i`` becomes ``perm[i]``."""
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (self.n,):
            raise GraphError(f"permutation must have length n={self.n}")
        if not np.array_equal(np.sort(perm), np.arange(self.n)):
            raise GraphError("perm is not a permutation of 0..n-1")
        return EdgeList(self.n, perm[self.u], perm[self.v], self.w)

    def with_weights(self, w: np.ndarray) -> "EdgeList":
        return EdgeList(self.n, self.u, self.v, w)

    def shuffled(self, seed: int) -> "EdgeList":
        """Shuffle edge order (affects work distribution, not the graph)."""
        order = np.random.default_rng(seed).permutation(self.m)
        w = self.w[order] if self.w is not None else None
        return EdgeList(self.n, self.u[order], self.v[order], w)

    def take(self, index: np.ndarray) -> "EdgeList":
        w = self.w[index] if self.w is not None else None
        return EdgeList(self.n, self.u[index], self.v[index], w)

    # -- degree / structure -------------------------------------------------------

    def degrees(self) -> np.ndarray:
        """Undirected degree of every vertex (self-loops count twice)."""
        deg = np.bincount(self.u, minlength=self.n)
        deg += np.bincount(self.v, minlength=self.n)
        return deg

    def max_degree(self) -> int:
        return int(self.degrees().max(initial=0))

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """Python-level edge iterator (tests/small inputs only)."""
        for a, b in zip(self.u.tolist(), self.v.tolist()):
            yield a, b

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "weighted" if self.weighted else "unweighted"
        return f"EdgeList(n={self.n}, m={self.m}, {kind})"
