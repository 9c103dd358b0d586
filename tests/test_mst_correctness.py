"""Correctness of every MST implementation against reference Kruskal,
scipy, and Prim across graph families and adversarial weight patterns."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import (
    EdgeList,
    cycle_graph,
    disjoint_components_graph,
    empty_graph,
    path_graph,
    random_graph,
    star_graph,
    with_random_weights,
)
from repro.mst import (
    check_spanning_forest,
    msf_reference,
    reference_kruskal,
    reference_prim_weight,
    scipy_msf,
    solve_mst_collective,
    solve_mst_naive_upc,
    solve_mst_sequential,
    solve_mst_smp,
)
from repro.runtime import hps_cluster, smp_node


def weighted(graph, seed=1, max_weight=None):
    kwargs = {} if max_weight is None else {"max_weight": max_weight}
    return with_random_weights(graph, seed, **kwargs)


WEIGHTED_FAMILY = {
    "path": lambda: weighted(path_graph(40)),
    "cycle": lambda: weighted(cycle_graph(25)),
    "star": lambda: weighted(star_graph(30)),
    "blocks": lambda: weighted(disjoint_components_graph(4, 12, seed=2)),
    "random": lambda: weighted(random_graph(200, 500, seed=7)),
    "dense": lambda: weighted(random_graph(50, 700, seed=8)),
    "ties": lambda: weighted(random_graph(120, 350, seed=9), max_weight=3),
    "zero-weights": lambda: weighted(random_graph(80, 200, seed=10), max_weight=1),
    "isolated": lambda: weighted(disjoint_components_graph(2, 8, seed=3)),
}

SOLVERS = {
    "collective": lambda g: solve_mst_collective(g, hps_cluster(2, 2)),
    "collective-8thr": lambda g: solve_mst_collective(g, hps_cluster(4, 2)),
    "smp": lambda g: solve_mst_smp(g, smp_node(8)),
    "naive-upc": lambda g: solve_mst_naive_upc(g, hps_cluster(2, 2)),
    "kruskal": lambda g: solve_mst_sequential(g, algorithm="kruskal"),
    "prim": lambda g: solve_mst_sequential(g, algorithm="prim"),
    "boruvka": lambda g: solve_mst_sequential(g, algorithm="boruvka"),
}


@pytest.fixture(params=sorted(WEIGHTED_FAMILY))
def wgraph(request):
    return WEIGHTED_FAMILY[request.param]()


@pytest.mark.parametrize("solver", sorted(SOLVERS), ids=str)
def test_valid_minimum_forest(wgraph, solver):
    res = SOLVERS[solver](wgraph)
    check_spanning_forest(wgraph, res.edge_ids)
    assert res.total_weight == msf_reference(wgraph)[1]


def test_references_agree(wgraph):
    ids, total = reference_kruskal(wgraph)
    assert total == reference_prim_weight(wgraph)
    assert total == scipy_msf(wgraph)[1]


class TestEdgeCases:
    def test_empty_graph(self):
        g = EdgeList(0, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                     np.empty(0, dtype=np.int64))
        res = solve_mst_collective(g, hps_cluster(2, 2))
        assert res.num_edges == 0 and res.total_weight == 0

    def test_no_edges(self):
        g = empty_graph(10).with_weights(np.empty(0, dtype=np.int64))
        res = solve_mst_collective(g, hps_cluster(2, 2))
        assert res.num_edges == 0

    def test_unweighted_rejected(self):
        g = random_graph(10, 20, 1)
        with pytest.raises(GraphError):
            solve_mst_collective(g, hps_cluster(2, 2))
        with pytest.raises(GraphError):
            solve_mst_sequential(g)

    def test_parallel_edges_pick_min_weight(self):
        g = EdgeList(
            2, np.array([0, 0, 0]), np.array([1, 1, 1]), np.array([30, 10, 20])
        )
        res = solve_mst_collective(g, hps_cluster(2, 2))
        assert res.total_weight == 10
        assert res.edge_ids.tolist() == [1]

    def test_self_loops_never_chosen(self):
        g = EdgeList(3, np.array([0, 1, 1]), np.array([1, 1, 2]), np.array([5, 0, 7]))
        res = solve_mst_collective(g, hps_cluster(2, 2))
        assert 1 not in res.edge_ids.tolist()
        assert res.total_weight == 12

    def test_labels_match_components(self):
        g = weighted(disjoint_components_graph(3, 10, seed=4))
        res = solve_mst_collective(g, hps_cluster(2, 2))
        assert np.unique(res.labels).size == 3

    def test_single_edge(self):
        g = EdgeList(2, np.array([0]), np.array([1]), np.array([42]))
        res = solve_mst_collective(g, hps_cluster(2, 2))
        assert res.total_weight == 42 and res.num_edges == 1


class TestDeterminism:
    def test_same_forest_across_machines(self):
        g = weighted(random_graph(200, 600, seed=5), seed=6)
        forests = [
            solve_mst_collective(g, m).edge_ids
            for m in (hps_cluster(2, 2), hps_cluster(8, 1), hps_cluster(1, 8))
        ]
        assert np.array_equal(forests[0], forests[1])
        assert np.array_equal(forests[0], forests[2])

    def test_collective_and_lock_based_agree_exactly(self):
        g = weighted(random_graph(150, 400, seed=5), seed=6, max_weight=5)  # ties!
        a = solve_mst_collective(g, hps_cluster(2, 2)).edge_ids
        b = solve_mst_smp(g, smp_node(4)).edge_ids
        assert np.array_equal(a, b)

    def test_matches_reference_kruskal_edge_set_on_unique_weights(self):
        # With all-distinct weights the MSF is unique: edge sets match.
        rng = np.random.default_rng(3)
        base = random_graph(100, 300, seed=2)
        w = rng.permutation(300).astype(np.int64)  # distinct weights
        g = base.with_weights(w)
        ref_ids, _ = reference_kruskal(g)
        got = solve_mst_collective(g, hps_cluster(2, 2)).edge_ids
        assert np.array_equal(np.sort(got), ref_ids)

    def test_tie_break_matches_reference_kruskal(self):
        # Even WITH ties, the library's (weight, edge id) order is total,
        # so Boruvka and Kruskal choose the same forest.
        g = weighted(random_graph(100, 300, seed=2), seed=3, max_weight=2)
        ref_ids, _ = reference_kruskal(g)
        got = solve_mst_collective(g, hps_cluster(2, 2)).edge_ids
        assert np.array_equal(np.sort(got), ref_ids)


@given(
    n=st.integers(2, 60),
    density=st.floats(0.5, 4.0),
    seed=st.integers(0, 15),
    max_w=st.sampled_from([1, 3, 100, 2**31 - 1]),
)
def test_property_collective_is_minimum_forest(n, density, seed, max_w):
    m = min(int(density * n), n * (n - 1) // 2)
    g = weighted(random_graph(n, m, seed), seed + 1, max_weight=max_w)
    res = solve_mst_collective(g, hps_cluster(2, 2))
    check_spanning_forest(g, res.edge_ids)
