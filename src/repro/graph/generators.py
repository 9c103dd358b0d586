"""Graph generators used by the paper's evaluation.

Two input families drive every experiment in the paper:

* **random graphs** — "A random graph of n vertices and m edges is
  created by randomly adding m unique edges to the vertex set"
  (:func:`random_graph`);
* **hybrid graphs** — "We first select 2*sqrt(n) vertices randomly to
  generate a scale-free graph on them.  We then randomly add edges to the
  n vertices until we have the desired number of edges."  The result has
  no locality pattern but contains O(sqrt(n))-degree hubs
  (:func:`hybrid_graph`).

Both are deterministic functions of their seed and — critically for the
paper's methodology — independent of any thread count.  MST inputs add
"edge weights randomly chosen between 0 and the maximum integer number"
(:func:`with_random_weights`).

A set of small structured generators (paths, stars, cycles, disjoint
blocks) is included for tests and examples.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from ..errors import GraphError
from ..runtime.shared_array import id_dtype
from .edgelist import EdgeList, canonical_keys, first_occurrences
from .rmat import DEFAULT_RMAT_PROBS, rmat_edges

__all__ = [
    "FAMILIES",
    "generate",
    "random_graph",
    "hybrid_graph",
    "powerlaw_graph",
    "with_random_weights",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "disjoint_components_graph",
    "empty_graph",
    "grid_graph",
    "MAX_WEIGHT",
]

#: The paper's weight range: "randomly chosen between 0 and the maximum
#: integer number" (32-bit).
MAX_WEIGHT = 2**31 - 1


def _rng(tag: str, *values: int) -> np.random.Generator:
    """Deterministic generator from a tag and integer parameters.

    Python's built-in ``hash`` of strings is randomized per process, so we
    derive entropy from crc32 instead — graphs must be bit-identical
    across runs and (per the paper's methodology) across thread counts.
    """
    entropy = [zlib.crc32(tag.encode())] + [int(v) & 0xFFFFFFFF for v in values]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _max_simple_edges(n: int) -> int:
    return n * (n - 1) // 2


def _fresh_first(keys: np.ndarray, keys_seen: np.ndarray) -> np.ndarray:
    """Ascending positions of the first occurrence of each key of
    ``keys`` that is not in ``keys_seen``.

    These are the first occurrences in ``keys_seen`` followed by
    ``keys`` that lie past ``keys_seen``: one sort answers both the
    within-batch dedup and the membership test.
    """
    if keys_seen.size == 0:
        return first_occurrences(keys)
    first = first_occurrences(np.concatenate([keys_seen, keys]))
    return first[np.searchsorted(first, keys_seen.size) :] - keys_seen.size


def _sample_unique_edges(
    n: int,
    m: int,
    rng: np.random.Generator,
    existing_keys: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``m`` unique undirected non-loop edges on ``n`` vertices,
    avoiding any edge whose canonical key appears in ``existing_keys``.

    Batched rejection sampling: draws ~1.2x the deficit per round and
    deduplicates by canonical (min*n + max) key.  The draws are int64
    (that fixes the random stream) and narrowed to the id width at once.
    """
    if n < 2 and m > 0:
        raise GraphError(f"cannot place {m} edges on {n} vertices")
    capacity = _max_simple_edges(n) - (existing_keys.size if existing_keys is not None else 0)
    if m > capacity:
        raise GraphError(f"requested {m} unique edges but only {capacity} are available (n={n})")

    ids = id_dtype(n)
    # The outputs are allocated before the round temporaries, so that
    # freeing those leaves no holes below live data in the heap.
    u = np.empty(m, dtype=ids)
    v = np.empty(m, dtype=ids)
    keys_seen = (
        np.empty(0, dtype=np.int64) if existing_keys is None else existing_keys.astype(np.int64)
    )
    filled = 0
    while filled < m:
        remaining = m - filled
        batch = max(1024, int(remaining * 1.2))
        uu = rng.integers(0, n, batch, dtype=np.int64).astype(ids)
        vv = rng.integers(0, n, batch, dtype=np.int64).astype(ids)
        ok = uu != vv
        uu, vv = uu[ok], vv[ok]
        keys = canonical_keys(uu, vv, n)
        # First occurrences within the batch (draw order preserved) of keys
        # not chosen in earlier rounds and not pre-existing.
        fresh = _fresh_first(keys, keys_seen)[:remaining]
        np.take(uu, fresh, out=u[filled : filled + fresh.size])
        np.take(vv, fresh, out=v[filled : filled + fresh.size])
        filled += fresh.size
        if filled < m:
            keys_seen = np.concatenate([keys_seen, keys[fresh]])
    return u, v


def random_graph(n: int, m: int, seed: int = 0) -> EdgeList:
    """The paper's random input: ``m`` unique undirected edges added to
    ``n`` isolated vertices."""
    if n < 0 or m < 0:
        raise GraphError(f"invalid sizes n={n}, m={m}")
    rng = _rng("random", n, m, seed)
    u, v = _sample_unique_edges(n, m, rng)
    return EdgeList(n, u, v)


def hybrid_graph(
    n: int,
    m: int,
    seed: int = 0,
    core_edge_factor: float = 16.0,
    rmat_probs: tuple[float, float, float, float] = DEFAULT_RMAT_PROBS,
) -> EdgeList:
    """The paper's hybrid input: an R-MAT scale-free core over
    ``2*sqrt(n)`` randomly selected vertices, filled with uniform random
    edges up to ``m`` total.

    The paper does not state the core's edge budget; we use
    ``min(m // 4, core_edge_factor * |core|)`` which yields hubs of degree
    ``O(sqrt(n))`` (matching the paper's load-balance discussion) while
    leaving most edges uniform.  Vertex ids inside the core are randomly
    relabeled so the result "does not contain obvious locality pattern".
    """
    if n < 4:
        raise GraphError(f"hybrid graphs need n >= 4, got {n}")
    if m < 0:
        raise GraphError(f"negative edge count {m}")
    rng = _rng("hybrid", n, m, seed)

    core_size = min(n, max(4, int(2 * math.sqrt(n))))
    scale = max(2, math.ceil(math.log2(core_size)))
    core_vertices = rng.choice(n, size=2**scale if 2**scale <= n else core_size, replace=False)
    # Pad the id table up to 2**scale by reusing core vertices: R-MAT draws
    # land on real, randomly placed vertices either way.
    table = np.empty(2**scale, dtype=id_dtype(n))
    table[: core_vertices.size] = core_vertices
    if core_vertices.size < table.size:
        table[core_vertices.size :] = rng.choice(core_vertices, table.size - core_vertices.size)

    core_budget = int(min(m // 4, core_edge_factor * core_size))
    cu, cv = rmat_edges(scale, core_budget, rng, probs=rmat_probs)
    cu, cv = table[cu], table[cv]
    keep = cu != cv
    cu, cv = cu[keep], cv[keep]
    keys = canonical_keys(cu, cv, n)
    first = first_occurrences(keys)
    cu, cv = cu[first], cv[first]

    fill = m - cu.size
    if fill < 0:  # pragma: no cover - defensive; dedup only shrinks the core
        cu, cv = cu[:m], cv[:m]
        fill = 0
    fu, fv = _sample_unique_edges(n, fill, rng, existing_keys=keys[first])
    u = np.concatenate([cu, fu])
    v = np.concatenate([cv, fv])
    # Shuffle edge order so the core is not clustered at the front of the
    # list (the distributed edge partition must not see artificial skew).
    order = rng.permutation(u.size)
    return EdgeList(n, u[order], v[order])


def powerlaw_graph(n: int, m: int, seed: int = 0, exponent: float = 2.5) -> EdgeList:
    """Configuration-model power-law input: ``m`` unique undirected edges
    whose endpoints are drawn from a seeded heavy-tailed stub
    distribution.

    Chung–Lu stub weights ``w_i ∝ rank^(-1/(exponent-1))`` give a degree
    tail ``P(deg >= k) ~ k^(1-exponent)`` — hubs far heavier than the
    hybrid input's R-MAT core, which is what makes this family the
    stress case for the ``offload`` hot-vertex optimization and for the
    Liu–Tarjan alter variants (label concentration happens in round
    one).  Vertex ranks are randomly relabeled so the hubs scatter
    across the blocked id space, and edge order is shuffled like the
    other families.  Deterministic function of ``(n, m, seed,
    exponent)``, independent of any thread count.

    Stub sampling saturates once the hub-pair combinations are used up;
    the remainder is filled with uniform unique edges (the same filler
    the hybrid family uses), so exactly ``m`` edges always come back.
    """
    if n < 0 or m < 0:
        raise GraphError(f"invalid sizes n={n}, m={m}")
    if exponent <= 1.0:
        raise GraphError(f"powerlaw exponent must exceed 1, got {exponent}")
    if m > _max_simple_edges(n):
        raise GraphError(f"requested {m} unique edges but only {_max_simple_edges(n)} fit (n={n})")
    if m == 0:
        return empty_graph(n)
    rng = _rng("powerlaw", n, m, seed, int(round(exponent * 1000)))
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (exponent - 1.0))
    p = weights / weights.sum()
    perm = rng.permutation(n).astype(id_dtype(n))

    keys_seen = np.empty(0, dtype=np.int64)
    out_u: list[np.ndarray] = []
    out_v: list[np.ndarray] = []
    remaining = m
    stalls = 0
    while remaining > 0 and stalls < 4:
        batch = max(1024, int(remaining * 1.5))
        uu = perm[rng.choice(n, size=batch, p=p)]
        vv = perm[rng.choice(n, size=batch, p=p)]
        ok = uu != vv
        uu, vv = uu[ok], vv[ok]
        keys = canonical_keys(uu, vv, n)
        fresh = _fresh_first(keys, keys_seen)[:remaining]
        if fresh.size == 0:
            stalls += 1
            continue
        stalls = 0
        out_u.append(uu[fresh])
        out_v.append(vv[fresh])
        remaining -= fresh.size
        if remaining > 0:
            keys_seen = np.concatenate([keys_seen, keys[fresh]])
    if remaining > 0:
        fu, fv = _sample_unique_edges(n, remaining, rng, existing_keys=keys_seen)
        out_u.append(fu)
        out_v.append(fv)
    u = np.concatenate(out_u)
    v = np.concatenate(out_v)
    order = rng.permutation(u.size)
    return EdgeList(n, u[order], v[order])


def with_random_weights(graph: EdgeList, seed: int = 0, max_weight: int = MAX_WEIGHT) -> EdgeList:
    """Attach the paper's MST weights: uniform integers in [0, max_weight)."""
    if max_weight < 1:
        raise GraphError(f"max_weight must be >= 1, got {max_weight}")
    rng = _rng("weights", graph.n, graph.m, seed)
    w = rng.integers(0, max_weight, graph.m, dtype=np.int64)
    return graph.with_weights(w)


#: The input families a request may name: the paper's two, plus the
#: heavy-tailed stress input.  ``<family>_graph`` generates each.
FAMILIES = ("random", "hybrid", "powerlaw")


def generate(kind: str, n: int, m: int, seed: int = 0, weighted: bool = False) -> EdgeList:
    """One input of family ``kind``; MST inputs (``weighted``) carry the
    weights drawn at ``seed + 1``.

    The generator is looked up in this module's namespace at call time
    (not in a table built at import), so a tracer that rebinds
    ``random_graph`` by name sees every input generated here.
    """
    if kind not in FAMILIES:
        raise GraphError(f"unknown graph family {kind!r}; use one of {FAMILIES}")
    graph = globals()[f"{kind}_graph"](n, m, seed=seed)
    return with_random_weights(graph, seed=seed + 1) if weighted else graph


# ---------------------------------------------------------------------------
# Structured graphs for tests and examples
# ---------------------------------------------------------------------------


def empty_graph(n: int) -> EdgeList:
    """``n`` isolated vertices."""
    return EdgeList(n, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def path_graph(n: int) -> EdgeList:
    """0-1-2-...-(n-1): worst case for pointer-jumping depth."""
    if n < 1:
        raise GraphError("path needs n >= 1")
    idx = np.arange(n - 1, dtype=np.int64)
    return EdgeList(n, idx, idx + 1)


def cycle_graph(n: int) -> EdgeList:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    idx = np.arange(n, dtype=np.int64)
    return EdgeList(n, idx, (idx + 1) % n)


def star_graph(n: int, center: int = 0) -> EdgeList:
    """One hub connected to everything: the communication-hotspot case
    the ``offload`` optimization targets."""
    if n < 2:
        raise GraphError("star needs n >= 2")
    if not 0 <= center < n:
        raise GraphError("center out of range")
    leaves = np.array([i for i in range(n) if i != center], dtype=np.int64)
    return EdgeList(n, np.full(n - 1, center, dtype=np.int64), leaves)


def complete_graph(n: int) -> EdgeList:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    iu = np.triu_indices(n, k=1)
    return EdgeList(n, iu[0].astype(np.int64), iu[1].astype(np.int64))


def disjoint_components_graph(blocks: int, block_size: int, seed: int = 0) -> EdgeList:
    """``blocks`` disjoint random connected blobs — exercises component
    counting and the ``compact`` optimization (intra-component edges)."""
    if blocks < 1 or block_size < 1:
        raise GraphError("need blocks >= 1 and block_size >= 1")
    n = blocks * block_size
    rng = _rng("blocks", blocks, block_size, seed)
    us, vs = [], []
    for b in range(blocks):
        base = b * block_size
        if block_size == 1:
            continue
        # Random spanning tree (random parent attachment) + a few extras.
        parents = rng.integers(0, np.arange(1, block_size), dtype=np.int64, endpoint=False)
        us.append(base + np.arange(1, block_size, dtype=np.int64))
        vs.append(base + parents)
        extra = min(block_size, 4)
        eu = base + rng.integers(0, block_size, extra, dtype=np.int64)
        ev = base + rng.integers(0, block_size, extra, dtype=np.int64)
        ok = eu != ev
        us.append(eu[ok])
        vs.append(ev[ok])
    if not us:
        return empty_graph(n)
    return EdgeList(n, np.concatenate(us), np.concatenate(vs))


def grid_graph(rows: int, cols: int, periodic: bool = False) -> EdgeList:
    """A 2-D grid (mesh) graph: vertex ``(r, c)`` has id ``r * cols + c``.

    With ``periodic=True`` the grid wraps into a torus.  Grids are the
    locality-friendly counterpoint to the random/hybrid inputs: the
    blocked shared-array layout keeps most neighbors on-node, which the
    layout-sensitivity tests and examples exploit.
    """
    if rows < 1 or cols < 1:
        raise GraphError(f"grid needs positive dimensions, got {rows}x{cols}")
    n = rows * cols
    ids = np.arange(n, dtype=np.int64).reshape(rows, cols)
    us, vs = [], []
    if cols > 1:
        us.append(ids[:, :-1].ravel())
        vs.append(ids[:, 1:].ravel())
    if rows > 1:
        us.append(ids[:-1, :].ravel())
        vs.append(ids[1:, :].ravel())
    if periodic and cols > 2:
        us.append(ids[:, -1].ravel())
        vs.append(ids[:, 0].ravel())
    if periodic and rows > 2:
        us.append(ids[-1, :].ravel())
        vs.append(ids[0, :].ravel())
    if not us:
        return empty_graph(n)
    return EdgeList(n, np.concatenate(us), np.concatenate(vs))
