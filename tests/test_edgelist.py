"""Tests for EdgeList (repro.graph.edgelist) and the test oracles' min-weight
dedup and conversions (tests/oracles.py)."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import GraphError
from repro.graph import EdgeList
from repro.graph.edgelist import first_occurrences
from tests.oracles import dedup_min_weight_index, to_networkx, to_scipy


def make(n, pairs, w=None):
    u = np.array([p[0] for p in pairs], dtype=np.int64)
    v = np.array([p[1] for p in pairs], dtype=np.int64)
    return EdgeList(n, u, v, None if w is None else np.asarray(w, dtype=np.int64))


class TestValidation:
    def test_valid(self):
        g = make(5, [(0, 1), (2, 3)])
        assert g.m == 2 and g.n == 5

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            make(3, [(0, 3)])
        with pytest.raises(GraphError):
            make(3, [(-1, 0)])

    def test_rejects_negative_n(self):
        with pytest.raises(GraphError):
            EdgeList(-1, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    def test_rejects_length_mismatch(self):
        with pytest.raises(GraphError):
            EdgeList(5, np.array([0]), np.array([1, 2]))

    def test_rejects_weight_mismatch(self):
        with pytest.raises(GraphError):
            make(5, [(0, 1)], w=[1, 2])

    def test_density(self):
        assert make(10, [(0, 1)] * 5).density == pytest.approx(0.5)
        assert EdgeList(0, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)).density == 0


class TestTransforms:
    def test_canonical_pairs_orientation_invariant(self):
        a = make(10, [(2, 7)])
        b = make(10, [(7, 2)])
        assert a.canonical_pairs()[0] == b.canonical_pairs()[0]

    def test_deduplicated(self):
        g = make(10, [(0, 1), (1, 0), (2, 3), (0, 1)])
        d = g.deduplicated()
        assert d.m == 2

    def test_deduplicated_keeps_first_weight(self):
        g = make(10, [(0, 1), (1, 0)], w=[5, 3])
        d = g.deduplicated()
        assert d.m == 1 and d.w[0] == 5

    def test_dedup_min_weight(self):
        g = make(10, [(0, 1), (1, 0), (2, 3)], w=[5, 3, 7])
        d = g.take(dedup_min_weight_index(g))
        assert d.m == 2
        assert d.w[d.canonical_pairs() == g.canonical_pairs()[0]][0] == 3

    def test_dedup_min_weight_index_sorted(self):
        g = make(10, [(0, 1), (1, 0), (2, 3)], w=[5, 3, 7])
        keep = dedup_min_weight_index(g)
        assert keep.tolist() == [1, 2]

    def test_dedup_min_weight_tie_keeps_earliest(self):
        g = make(10, [(0, 1), (1, 0)], w=[4, 4])
        keep = dedup_min_weight_index(g)
        assert keep.tolist() == [0]

    def test_without_self_loops(self):
        g = make(5, [(0, 0), (1, 2)])
        assert g.without_self_loops().m == 1

    def test_symmetrized(self):
        g = make(5, [(0, 1)], w=[9])
        s = g.symmetrized()
        assert s.m == 2
        assert s.u.tolist() == [0, 1] and s.v.tolist() == [1, 0]
        assert s.w.tolist() == [9, 9]

    def test_permuted(self):
        g = make(3, [(0, 1), (1, 2)])
        p = g.permuted(np.array([2, 0, 1]))
        assert p.u.tolist() == [2, 0] and p.v.tolist() == [0, 1]

    def test_permuted_rejects_non_permutation(self):
        g = make(3, [(0, 1)])
        with pytest.raises(GraphError):
            g.permuted(np.array([0, 0, 1]))
        with pytest.raises(GraphError):
            g.permuted(np.array([0, 1]))

    def test_with_weights(self):
        g = make(3, [(0, 1)])
        w = g.with_weights(np.array([42]))
        assert w.weighted and w.w[0] == 42

    def test_shuffled_preserves_multiset(self):
        g = make(20, [(i, i + 1) for i in range(19)], w=list(range(19)))
        s = g.shuffled(seed=1)
        assert sorted(s.canonical_pairs().tolist()) == sorted(g.canonical_pairs().tolist())
        # weights travel with their edges
        for i in range(s.m):
            orig = np.flatnonzero(g.canonical_pairs() == s.canonical_pairs()[i])[0]
            assert s.w[i] == g.w[orig]

    def test_take(self):
        g = make(5, [(0, 1), (1, 2), (2, 3)], w=[1, 2, 3])
        t = g.take(np.array([2, 0]))
        assert t.u.tolist() == [2, 0] and t.w.tolist() == [3, 1]


class TestStructure:
    def test_degrees(self):
        g = make(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degrees().tolist() == [3, 1, 1, 1]

    def test_self_loop_counts_twice(self):
        g = make(2, [(0, 0)])
        assert g.degrees()[0] == 2

    def test_max_degree_empty(self):
        g = make(3, [])
        assert g.max_degree() == 0


class TestInterop:
    """The test oracles' conversions (``tests/oracles.py``)."""

    def test_to_networkx(self):
        g = make(4, [(0, 1), (2, 3)])
        nxg = to_networkx(g)
        assert nxg.number_of_nodes() == 4
        assert nxg.number_of_edges() == 2

    def test_to_networkx_weighted(self):
        g = make(3, [(0, 1)], w=[7])
        nxg = to_networkx(g)
        assert nxg[0][1]["weight"] == 7

    def test_to_scipy_symmetric(self):
        g = make(3, [(0, 1)])
        mat = to_scipy(g)
        assert mat[0, 1] == 1 and mat[1, 0] == 1

    def test_to_scipy_weighted_min_dedup(self):
        g = make(3, [(0, 1), (1, 0)], w=[9, 4])
        mat = to_scipy(g)
        assert mat[0, 1] == 4

    def test_iter_edges(self):
        g = make(4, [(0, 1), (2, 3)])
        assert list(g.iter_edges()) == [(0, 1), (2, 3)]


_KEY_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint16, np.uint64]


@st.composite
def _keys(draw):
    """A key vector of one of five shapes: duplicate-free, duplicate-free
    but for a few copied keys (the generators' batches), drawn from a
    small pool (duplicate-heavy), all equal, or drawn from a pool whose
    values agree in their low bits — every such key passes a low-bits
    filter, so the exact step must sort out the false positives."""
    dt = draw(st.sampled_from(_KEY_DTYPES))
    info = np.iinfo(dt)
    anywhere = st.one_of(
        st.integers(max(info.min, -4), 4),
        st.integers(info.min, info.max),
        st.sampled_from([info.min, info.max]),
    )
    shape = draw(st.sampled_from(["distinct", "few-copies", "pool", "equal", "low-bits"]))
    if shape in ("distinct", "few-copies"):
        keys = draw(st.lists(anywhere, max_size=300, unique=True))
        if shape == "few-copies" and keys:
            index = st.integers(0, len(keys) - 1)
            for dst, src in draw(st.lists(st.tuples(index, index), max_size=4)):
                keys[dst] = keys[src]
        return np.array(keys, dtype=dt)
    size = draw(st.integers(0, 300))
    if shape == "equal":
        return np.full(size, draw(anywhere), dtype=dt)
    pool = draw(st.lists(anywhere, min_size=1, max_size=12, unique=True))
    if shape == "low-bits":
        bits = draw(st.integers(1, info.bits - 1))
        low = draw(st.integers(0, 2**bits - 1))
        pool = sorted({(value >> bits << bits) | low for value in pool})
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))
    return np.array([pool[i] for i in picks], dtype=dt)


class TestFirstOccurrences:
    @given(_keys())
    @example(np.empty(0, dtype=np.int64))
    @example(np.empty(0, dtype=np.int32))
    @example(np.array([7], dtype=np.int64))
    @example(np.full(50, -3, dtype=np.int32))
    @example(np.full(50, np.iinfo(np.int64).max, dtype=np.int64))
    # 2**19 distinct keys and three repeats: the filter is at its 18-bit
    # cap, and every key shares its low 18 bits with the repeated ones.
    @example(np.arange(-3, 2**19, dtype=np.int64) % 2**19 << 18)
    def test_equals_sorted_unique_index(self, keys):
        got = first_occurrences(keys)
        want = np.sort(np.unique(keys, return_index=True)[1])
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
