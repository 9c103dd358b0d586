"""Correctness of every CC implementation against the networkx oracle,
across the structural graph family and machine shapes."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cc import (
    solve_cc_collective,
    solve_cc_naive_upc,
    solve_cc_sequential,
    solve_cc_smp,
    solve_cc_sv,
)
from repro.core import OptimizationFlags, canonical_labels
from repro.graph import EdgeList, random_graph
from repro.runtime import hps_cluster, smp_node
from tests.oracles import reference_cc_labels, reference_union_find_labels, to_networkx


def oracle(graph: EdgeList) -> np.ndarray:
    labels = np.arange(graph.n, dtype=np.int64)
    for comp in nx.connected_components(to_networkx(graph)):
        root = min(comp)
        for vtx in comp:
            labels[vtx] = root
    return labels


SOLVERS = {
    "reference": lambda g: reference_cc_labels(g),
    "union-find": lambda g: reference_union_find_labels(g),
    "sequential": lambda g: solve_cc_sequential(g).labels,
    "smp": lambda g: solve_cc_smp(g, smp_node(8)).labels,
    "naive-upc": lambda g: solve_cc_naive_upc(g, hps_cluster(2, 2)).labels,
    "collective": lambda g: solve_cc_collective(g, hps_cluster(2, 2)).labels,
    "collective-noopt": lambda g: solve_cc_collective(
        g, hps_cluster(2, 2), OptimizationFlags.none()
    ).labels,
    "collective-tprime": lambda g: solve_cc_collective(
        g, hps_cluster(2, 2), tprime=4
    ).labels,
    "sv": lambda g: solve_cc_sv(g, hps_cluster(2, 2)).labels,
    "sv-noopt": lambda g: solve_cc_sv(g, hps_cluster(2, 2), OptimizationFlags.none()).labels,
}


@pytest.mark.parametrize("solver", sorted(SOLVERS), ids=str)
def test_matches_oracle_on_family(any_graph, solver):
    labels = SOLVERS[solver](any_graph)
    assert np.array_equal(canonical_labels(labels), oracle(any_graph))


@pytest.mark.parametrize("solver", sorted(SOLVERS), ids=str)
def test_zero_vertices(solver):
    g = EdgeList(0, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    labels = SOLVERS[solver](g)
    assert labels.size == 0


def test_self_loop_handled():
    g = EdgeList(3, np.array([1, 0]), np.array([1, 2]))
    got = canonical_labels(solve_cc_collective(g, hps_cluster(2, 2)).labels)
    assert got.tolist() == [0, 1, 0]


def test_parallel_edges_handled():
    g = EdgeList(4, np.array([0, 0, 0]), np.array([1, 1, 1]))
    got = canonical_labels(solve_cc_collective(g, hps_cluster(2, 2)).labels)
    assert got.tolist() == [0, 0, 2, 3]


def test_more_threads_than_vertices():
    g = random_graph(6, 8, seed=1)
    got = canonical_labels(solve_cc_collective(g, hps_cluster(4, 4)).labels)
    assert np.array_equal(got, oracle(g))


def test_single_vertex():
    g = EdgeList(1, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    assert solve_cc_collective(g, hps_cluster(2, 2)).labels.tolist() == [0]


@given(
    n=st.integers(2, 80),
    density=st.floats(0.0, 3.0),
    seed=st.integers(0, 20),
)
def test_property_collective_matches_oracle(n, density, seed):
    m = min(int(density * n), n * (n - 1) // 2)
    g = random_graph(n, m, seed)
    got = canonical_labels(solve_cc_collective(g, hps_cluster(2, 2)).labels)
    assert np.array_equal(got, oracle(g))


@given(n=st.integers(2, 60), seed=st.integers(0, 10))
def test_property_sv_matches_oracle(n, seed):
    m = min(2 * n, n * (n - 1) // 2)
    g = random_graph(n, m, seed)
    got = canonical_labels(solve_cc_sv(g, hps_cluster(2, 2)).labels)
    assert np.array_equal(got, oracle(g))
