"""Tests for BFS and the CSR adjacency substrate."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bfs import solve_bfs_collective, solve_bfs_naive_upc, solve_bfs_sequential
from repro.bfs.solvers import UNREACHED
from repro.errors import GraphError
from repro.graph import EdgeList, path_graph, random_graph, star_graph
from repro.graph.csr import CSRAdjacency
from repro.runtime import hps_cluster, smp_node
from tests.oracles import to_networkx


def oracle(graph, source):
    lengths = nx.single_source_shortest_path_length(to_networkx(graph), source)
    out = np.full(graph.n, UNREACHED, dtype=np.int64)
    for v, d in lengths.items():
        out[v] = d
    return out


class TestCSR:
    def test_neighbors_symmetric(self):
        g = EdgeList(4, np.array([0, 1]), np.array([1, 2]))
        adj = CSRAdjacency.from_edgelist(g)
        assert sorted(adj.neighbors_of(np.array([1])).tolist()) == [0, 2]

    def test_degrees(self):
        g = star_graph(5)
        adj = CSRAdjacency.from_edgelist(g)
        assert adj.degree(np.array([0]))[0] == 4
        assert adj.degree(np.array([1]))[0] == 1

    def test_self_loops_dropped(self):
        g = EdgeList(3, np.array([0, 1]), np.array([0, 2]))
        adj = CSRAdjacency.from_edgelist(g)
        assert adj.degree(np.array([0]))[0] == 0

    def test_multi_row_slice(self):
        g = path_graph(6)
        adj = CSRAdjacency.from_edgelist(g)
        out = adj.neighbors_of(np.array([0, 3, 5]))
        assert sorted(out.tolist()) == [1, 2, 4, 4]

    def test_empty_query(self):
        adj = CSRAdjacency.from_edgelist(path_graph(4))
        assert adj.neighbors_of(np.empty(0, dtype=np.int64)).size == 0

    def test_rows_with_zero_degree(self):
        g = EdgeList(5, np.array([0]), np.array([1]))
        adj = CSRAdjacency.from_edgelist(g)
        out = adj.neighbors_of(np.array([2, 0, 3]))
        assert out.tolist() == [1]

    def test_out_of_range(self):
        adj = CSRAdjacency.from_edgelist(path_graph(4))
        with pytest.raises(GraphError):
            adj.neighbors_of(np.array([4]))

    @given(n=st.integers(2, 40), seed=st.integers(0, 10))
    def test_property_neighbors_match_networkx(self, n, seed):
        m = min(3 * n, n * (n - 1) // 2)
        g = random_graph(n, m, seed)
        adj = CSRAdjacency.from_edgelist(g)
        nxg = to_networkx(g)
        for v in range(n):
            got = sorted(adj.neighbors_of(np.array([v])).tolist())
            assert got == sorted(nxg.neighbors(v))


def _all_solvers(g, source):
    return [
        solve_bfs_collective(g, source, hps_cluster(2, 2))[0],
        solve_bfs_naive_upc(g, source, hps_cluster(2, 2))[0],
        solve_bfs_sequential(g, source)[0],
    ]


class TestBFS:
    @pytest.mark.parametrize("source", [0, 7, 29])
    def test_all_solvers_match_oracle(self, source):
        g = random_graph(200, 500, seed=3)
        expected = oracle(g, source)
        for dist in _all_solvers(g, source):
            assert np.array_equal(dist, expected)

    def test_all_solvers_match_oracle_2000_levels_deep(self):
        g = path_graph(2000)
        expected = oracle(g, 0)
        assert expected[-1] == 1999
        for dist in _all_solvers(g, 0):
            assert np.array_equal(dist, expected)

    def test_family(self, any_graph):
        if any_graph.n == 0:
            return
        expected = oracle(any_graph, 0)
        for dist in _all_solvers(any_graph, 0):
            assert np.array_equal(dist, expected)

    def test_unreachable_marked(self):
        from repro.graph import disjoint_components_graph

        g = disjoint_components_graph(2, 10, 1)
        d, _ = solve_bfs_collective(g, 0, hps_cluster(2, 2))
        assert np.any(d == UNREACHED)

    def test_level_count_is_eccentricity_plus_one(self):
        g = path_graph(33)
        _, info = solve_bfs_collective(g, 0, hps_cluster(2, 2))
        assert info.iterations == 33

    def test_diameter_bound_vs_cc(self):
        # The paper's Section I contrast: BFS rounds scale with the
        # diameter; CC grafting iterations do not.
        from repro.core import connected_components

        g = path_graph(256)
        _, info = solve_bfs_collective(g, 0, hps_cluster(2, 2))
        cc = connected_components(g, hps_cluster(2, 2))
        assert info.iterations >= 20 * cc.info.iterations

    def test_single_node_machine(self):
        g = random_graph(100, 300, 4)
        d, _ = solve_bfs_collective(g, 0, smp_node(4))
        assert np.array_equal(d, oracle(g, 0))

    def test_machine_invariant(self):
        g = random_graph(150, 400, 5)
        a, _ = solve_bfs_collective(g, 3, hps_cluster(2, 4))
        b, _ = solve_bfs_collective(g, 3, hps_cluster(8, 1))
        assert np.array_equal(a, b)

    def test_bad_source(self):
        g = path_graph(5)
        with pytest.raises(GraphError):
            solve_bfs_collective(g, 5, hps_cluster(2, 2))

    def test_naive_much_slower(self):
        g = random_graph(5_000, 20_000, 6)
        machine = hps_cluster(4, 4)
        _, coll = solve_bfs_collective(g, 0, machine)
        _, naive = solve_bfs_naive_upc(g, 0, machine)
        assert naive.sim_time > 5 * coll.sim_time

    @given(n=st.integers(2, 80), seed=st.integers(0, 10))
    def test_property_collective_matches_oracle(self, n, seed):
        m = min(2 * n, n * (n - 1) // 2)
        g = random_graph(n, m, seed)
        d, _ = solve_bfs_collective(g, 0, hps_cluster(2, 2))
        assert np.array_equal(d, oracle(g, 0))
