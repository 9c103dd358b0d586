"""Tests for permutations, distribution, IO, and validation helpers."""

import numpy as np
import pytest

from repro.errors import DistributionError, GraphError
from repro.graph import (
    EdgeList,
    block_cyclic_permutation,
    check_connected_counts,
    check_simple,
    component_sizes,
    count_components_reference,
    distribute_edges,
    has_self_loops,
    identity_permutation,
    invert_permutation,
    is_simple,
    load_edgelist,
    path_graph,
    random_graph,
    random_permutation,
    reversal_permutation,
    save_edgelist,
    with_random_weights,
)


class TestPermutations:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda n: random_permutation(n, 3),
            identity_permutation,
            reversal_permutation,
            lambda n: block_cyclic_permutation(n, 4),
        ],
    )
    def test_is_permutation(self, factory):
        for n in (1, 7, 32, 100):
            perm = factory(n)
            assert np.array_equal(np.sort(perm), np.arange(n))

    def test_random_deterministic(self):
        assert np.array_equal(random_permutation(50, 9), random_permutation(50, 9))

    def test_reversal(self):
        assert reversal_permutation(4).tolist() == [3, 2, 1, 0]

    def test_invert(self):
        perm = random_permutation(40, 1)
        inv = invert_permutation(perm)
        assert np.array_equal(perm[inv], np.arange(40))
        assert np.array_equal(inv[perm], np.arange(40))

    def test_block_cyclic_destroys_locality(self):
        perm = block_cyclic_permutation(16, 4)
        # adjacent ids land far apart
        assert abs(int(perm[1]) - int(perm[0])) >= 3

    def test_errors(self):
        with pytest.raises(GraphError):
            random_permutation(-1)
        with pytest.raises(GraphError):
            block_cyclic_permutation(10, 0)


class TestDistribute:
    def test_even_split(self):
        g = random_graph(50, 200, 1)
        ep = distribute_edges(g, 8)
        sizes = ep.sizes()
        assert sizes.sum() == 200
        assert sizes.max() - sizes.min() <= 1

    def test_weighted_shares_offsets(self):
        g = with_random_weights(random_graph(50, 200, 1), 2)
        ep = distribute_edges(g, 8)
        assert ep.weighted
        assert np.array_equal(ep.w.offsets, ep.u.offsets)

    def test_filter(self):
        g = random_graph(50, 100, 1)
        ep = distribute_edges(g, 4)
        mask = np.zeros(100, dtype=bool)
        mask[::2] = True
        out = ep.filter(mask)
        assert out.m == 50
        assert out.parts == 4

    def test_edge_ids(self):
        g = random_graph(20, 40, 1)
        ep = distribute_edges(g, 4)
        ids = ep.edge_ids()
        assert np.array_equal(ids.data, np.arange(40))
        assert np.array_equal(ids.offsets, ep.offsets)

    def test_roundtrip_to_edgelist(self):
        g = with_random_weights(random_graph(30, 60, 1), 2)
        ep = distribute_edges(g, 4)
        back = ep.to_edgelist()
        assert np.array_equal(back.u, g.u)
        assert np.array_equal(back.w, g.w)

    def test_rejects_zero_threads(self):
        with pytest.raises(DistributionError):
            distribute_edges(random_graph(10, 10, 1), 0)

    def test_more_threads_than_edges(self):
        g = random_graph(10, 3, 1)
        ep = distribute_edges(g, 8)
        assert ep.sizes().sum() == 3


class TestIO:
    def test_roundtrip_unweighted(self, tmp_path):
        g = random_graph(40, 80, 1)
        path = tmp_path / "g.npz"
        save_edgelist(g, path)
        back = load_edgelist(path)
        assert back.n == g.n
        assert np.array_equal(back.u, g.u) and np.array_equal(back.v, g.v)
        assert back.w is None

    def test_roundtrip_weighted(self, tmp_path):
        g = with_random_weights(random_graph(40, 80, 1), 2)
        path = tmp_path / "g.npz"
        save_edgelist(g, path)
        back = load_edgelist(path)
        assert np.array_equal(back.w, g.w)

    def test_creates_parent_dirs(self, tmp_path):
        g = random_graph(10, 10, 1)
        path = tmp_path / "a" / "b" / "g.npz"
        save_edgelist(g, path)
        assert path.exists()

    def test_missing_arrays_rejected(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, n=np.int64(3), u=np.array([0]))
        with pytest.raises(GraphError):
            load_edgelist(path)


class TestValidation:
    def test_is_simple(self):
        assert is_simple(random_graph(20, 40, 1))
        g = EdgeList(3, np.array([0, 0]), np.array([1, 1]))
        assert not is_simple(g)

    def test_self_loops_detected(self):
        g = EdgeList(3, np.array([1]), np.array([1]))
        assert has_self_loops(g)
        with pytest.raises(GraphError):
            check_simple(g)

    def test_duplicate_detected_both_orientations(self):
        g = EdgeList(3, np.array([0, 1]), np.array([1, 0]))
        with pytest.raises(GraphError):
            check_simple(g)

    def test_component_count(self):
        assert count_components_reference(path_graph(10)) == 1
        from repro.graph import disjoint_components_graph

        assert count_components_reference(disjoint_components_graph(3, 5, 1)) == 3

    def test_component_sizes(self):
        labels = np.array([0, 0, 1, 2, 2, 2])
        assert component_sizes(labels).tolist() == [3, 2, 1]

    def test_check_connected_counts_accepts_valid(self):
        g = path_graph(6)
        check_connected_counts(np.zeros(6, dtype=np.int64), g)

    def test_check_connected_counts_rejects_split_edge(self):
        g = path_graph(4)
        bad = np.array([0, 0, 1, 1])
        with pytest.raises(GraphError):
            check_connected_counts(bad, g)

    def test_check_connected_counts_rejects_wrong_count(self):
        from repro.graph import empty_graph

        g = empty_graph(4)
        merged = np.zeros(4, dtype=np.int64)  # claims one component
        with pytest.raises(GraphError):
            check_connected_counts(merged, g)

    def test_check_connected_counts_rejects_bad_shape(self):
        g = path_graph(4)
        with pytest.raises(GraphError):
            check_connected_counts(np.zeros(3, dtype=np.int64), g)
