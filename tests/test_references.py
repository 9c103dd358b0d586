"""The certificates' NumPy references, differential against SciPy and networkx.

:func:`forest_roots`, :func:`count_components_reference` and
:func:`msf_reference` are what every verified answer is compared with,
in ``validate=True``, the service and the ledger, and they use NumPy
alone.  Here they must agree with networkx (component minima, component
count, minimum spanning forest weight) and with SciPy (component count,
:func:`scipy_msf`) on arbitrary multigraphs: self-loops, parallel edges,
isolated vertices, empty graphs, and weights that are all equal, zero,
or at least ``2**31``.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.sparse import csgraph

from repro.errors import VerificationError
from repro.graph import EdgeList, path_graph
from repro.graph.validation import count_components_reference, forest_roots
from repro.mst import msf_reference, scipy_msf

# Below 2**53, so that SciPy's float64 weights stay exact.
BIG = 2**40

WEIGHTS = {
    "any": st.integers(0, BIG),
    "small": st.integers(0, 3),  # many ties
    "zero": st.just(0),
    "equal": st.just(7),
    "wide": st.integers(2**31, BIG),
}


@st.composite
def multigraphs(draw, weights=WEIGHTS["any"]):
    """Any edge list on up to 30 vertices: self-loops, parallel edges and
    isolated vertices included, ``n = 0`` and ``m = 0`` too."""
    n = draw(st.integers(0, 30))
    m = draw(st.integers(0, 60)) if n else 0
    ends = st.lists(st.integers(0, max(n - 1, 0)), min_size=m, max_size=m)
    u, v = draw(ends), draw(ends)
    w = draw(st.lists(weights, min_size=m, max_size=m))
    return EdgeList(n, np.array(u, dtype=np.int64), np.array(v, dtype=np.int64),
                    np.array(w, dtype=np.int64))


def _nx(graph: EdgeList) -> nx.MultiGraph:
    g = nx.MultiGraph()
    g.add_nodes_from(range(graph.n))
    weights = graph.w if graph.w is not None else np.zeros(graph.m, dtype=np.int64)
    g.add_weighted_edges_from(zip(graph.u.tolist(), graph.v.tolist(), weights.tolist()))
    return g


def _scipy_count(graph: EdgeList) -> int:
    if graph.n == 0:
        return 0
    structure = graph.with_weights(None).to_scipy()  # a zero weight would drop its edge
    return int(csgraph.connected_components(structure, directed=False)[0])


def _nx_forest(graph: EdgeList) -> tuple[int, int]:
    forest = nx.minimum_spanning_tree(_nx(graph), algorithm="kruskal")
    return nx.number_connected_components(forest), int(forest.size(weight="weight"))


EMPTY = EdgeList(0, [], [], [])
EDGELESS = EdgeList(4, [], [], [])
LOOPS = EdgeList(3, [0, 1, 1, 2], [0, 1, 1, 2], [5, 0, 2**33, 1])
PARALLEL = EdgeList(3, [0, 1, 0, 1, 2], [1, 0, 1, 2, 1], [9, 3, 3, 2**31, 2**31 + 1])


@given(multigraphs())
@example(EMPTY)
@example(EDGELESS)
@example(LOOPS)
@example(PARALLEL)
def test_roots_are_component_minima(graph):
    expected = np.arange(graph.n)
    for component in nx.connected_components(_nx(graph)):
        members = sorted(component)
        expected[members] = members[0]
    np.testing.assert_array_equal(forest_roots(graph.n, graph.u, graph.v), expected)


@given(multigraphs())
@example(EMPTY)
@example(EDGELESS)
@example(LOOPS)
@example(PARALLEL)
def test_component_count_matches_scipy_and_networkx(graph):
    count = count_components_reference(graph)
    assert count == _scipy_count(graph)
    assert count == nx.number_connected_components(_nx(graph))


@pytest.mark.parametrize("kind", sorted(WEIGHTS))
@given(data=st.data())
def test_forest_reference_matches_scipy_and_networkx(kind, data):
    graph = data.draw(multigraphs(WEIGHTS[kind]))
    reference = msf_reference(graph)
    edge_ids, weight = scipy_msf(graph)
    assert reference == (graph.n - edge_ids.size, weight)
    assert reference == _nx_forest(graph)


@pytest.mark.parametrize("weight", [None, 0, 7, 2**31 + 5])
def test_forest_reference_on_edge_case_graphs(weight):
    """The pinned graphs with their own weights (``None``), or with every
    weight set to one value."""
    for graph in (EMPTY, EDGELESS, LOOPS, PARALLEL):
        if weight is not None:
            graph = graph.with_weights(np.full(graph.m, weight, dtype=np.int64))
        edge_ids, total = scipy_msf(graph)
        assert msf_reference(graph) == (graph.n - edge_ids.size, total) == _nx_forest(graph)


def test_long_path_with_shuffled_ids():
    """A path of 20 000 vertices whose ids are a random permutation: one
    component rooted at 0, and the whole path is its own forest."""
    n = 20_000
    rng = np.random.default_rng(3)
    ids = rng.permutation(n)
    path = path_graph(n)
    graph = EdgeList(n, ids[path.u], ids[path.v], rng.integers(0, BIG, size=n - 1))
    assert not forest_roots(n, graph.u, graph.v).any()
    assert count_components_reference(graph) == 1 == _scipy_count(graph)
    assert msf_reference(graph) == (1, int(graph.w.sum())) == _nx_forest(graph)


def test_forest_reference_needs_weights():
    with pytest.raises(VerificationError, match="weighted"):
        msf_reference(EdgeList(2, [0], [1]))
