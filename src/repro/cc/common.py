"""Shared semantics for the connected-components implementations.

Every CC implementation in this package — the pure-Python reference, the
SMP baseline, the naive UPC translation, and the collective rewrite —
executes the *same* grafting rule from the same per-iteration snapshot,
with concurrent writes adjudicated by minimum.  That makes the label
evolution bit-identical across implementations and thread counts, which
is what lets the tests pin one against another.

Grafting rule (Bader-Cong CC, an SV-derived hook):

    for each edge (u, v):
        if D[u] < D[v] and D[v] == D[D[v]]:   # v's label is a root
            D[D[v]] <- D[u]
        symmetric for D[v] < D[u]

Shortcut rule: ``D[i] <- D[D[i]]`` repeated until every tree is a rooted
star (the full loop in CC; a single application in SV).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..errors import ConvergenceError

__all__ = ["graft_proposals", "iteration_bound", "is_all_stars", "GraftStep"]


def iteration_bound(n: int) -> int:
    """Safety bound on grafting iterations: the algorithms converge in
    ``O(log n)``; we allow a generous multiple before declaring a bug."""
    return 4 * max(1, math.ceil(math.log2(max(n, 2)))) + 8


class GraftStep(NamedTuple):
    """The write set of one grafting step, computed from a snapshot:
    edge ``sel[i]`` (ascending edge positions) writes ``values[i]`` to
    ``targets[i]`` (min-adjudicated)."""

    targets: np.ndarray
    values: np.ndarray
    sel: np.ndarray


def graft_proposals(
    du: np.ndarray, dv: np.ndarray, ddu: np.ndarray, ddv: np.ndarray
) -> GraftStep:
    """Compute the grafting write set from snapshot label reads.

    Parameters are the snapshot values ``D[u]``, ``D[v]``, ``D[D[u]]``,
    ``D[D[v]]`` for every (still live) edge.  The two directions are
    mutually exclusive (``D[u] < D[v]`` xor ``D[v] < D[u]`` on live
    edges), so the result is a single target/value pair per proposing
    edge.
    """
    cond_uv = (du < dv) & (ddv == dv)  # graft v's root onto u's label
    cond_vu = (dv < du) & (ddu == du)  # graft u's root onto v's label
    sel = np.flatnonzero(cond_uv | cond_vu)
    if sel.size < du.size:  # after compact + full shortcut every live edge proposes
        du, dv = du.take(sel), dv.take(sel)
    # Either way round, the larger label's root receives the smaller label.
    return GraftStep(np.maximum(du, dv), np.minimum(du, dv), sel)


def is_all_stars(d: np.ndarray) -> bool:
    """True when every tree in the parent forest is a rooted star."""
    return bool(np.array_equal(d[d], d))


def check_converged(iteration: int, n: int, what: str) -> None:
    """Raise if the iteration safety bound is exceeded."""
    if iteration > iteration_bound(n):
        raise ConvergenceError(
            f"{what} exceeded the {iteration_bound(n)}-iteration safety bound for n={n};"
            " this indicates a semantic bug, not a slow input"
        )
