"""The answer certificates, proven against networkx rather than assumed.

The service serves a result only after a certificate accepts it
(:func:`check_connected_counts`, :func:`check_spanning_forest`,
:func:`check_bfs_levels`), and nothing under ``src/`` re-solves the
problem any more.  So this file is where the certificates earn that
trust: for a zoo of graphs and a set of answer perturbations, the
certificate must accept exactly when a verdict computed *here, with
networkx* accepts; every perturbation class must be rejected at least
once; and for every clause of a certificate there is a pinned case that
only that clause rejects, so deleting any one clause fails this file.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bfs.solvers import UNREACHED
from repro.errors import GraphError, VerificationError
from repro.graph import (
    EdgeList,
    check_bfs_levels,
    check_connected_counts,
    count_components_reference,
    hybrid_graph,
    powerlaw_graph,
    random_graph,
)
from repro.mst import check_spanning_forest, msf_reference
from tests.oracles import to_networkx

# ---------------------------------------------------------------------------
# The graph zoo
# ---------------------------------------------------------------------------


def _union(a: EdgeList, b: EdgeList) -> EdgeList:
    return EdgeList(a.n + b.n, np.concatenate([a.u, b.u + a.n]), np.concatenate([a.v, b.v + a.n]))


def _max_edges(n: int) -> int:
    return n * (n - 1) // 2


FAMILIES = {
    "random": lambda n, seed: random_graph(n, min(2 * n, _max_edges(n)), seed),
    "sparse": lambda n, seed: random_graph(n, min(n // 2, _max_edges(n)), seed),
    "hybrid": lambda n, seed: hybrid_graph(max(n, 4), min(2 * max(n, 4), _max_edges(max(n, 4))), seed),
    "powerlaw": lambda n, seed: powerlaw_graph(n, min(2 * n, _max_edges(n)), seed),
    "disconnected": lambda n, seed: _union(
        random_graph(n, min(2 * n, _max_edges(n)), seed),
        random_graph(n // 2 + 1, min(n, _max_edges(n // 2 + 1)), seed + 1),
    ),
    "isolated": lambda n, seed: _union(
        random_graph(n, min(2 * n, _max_edges(n)), seed), EdgeList(3, [], [])
    ),
    "parallel": lambda n, seed: (
        lambda g: EdgeList(g.n, np.concatenate([g.u, g.v[::2]]), np.concatenate([g.v, g.u[::2]]))
    )(random_graph(n, min(2 * n, _max_edges(n)), seed)),
    "m0": lambda n, seed: EdgeList(n, [], []),
    "n0": lambda n, seed: EdgeList(0, [], []),
}
WEIGHTS = {"wide": 2**31 - 1, "ties": 3, "zero": 0}


def _graph(family: str, n: int, seed: int) -> EdgeList:
    return FAMILIES[family](n, seed)


def _weighted(g: EdgeList, weights: str, seed: int) -> EdgeList:
    rng = np.random.default_rng(seed)
    return g.with_weights(rng.integers(0, WEIGHTS[weights] + 1, size=g.m))


graphs = st.builds(
    _graph, st.sampled_from(sorted(FAMILIES)), st.integers(1, 24), st.integers(0, 10_000)
)

# ---------------------------------------------------------------------------
# networkx verdicts and correct answers
# ---------------------------------------------------------------------------


def nx_labels(g: EdgeList) -> np.ndarray:
    labels = np.zeros(g.n, dtype=np.int64)
    for comp in nx.connected_components(to_networkx(g)):
        labels[list(comp)] = min(comp)
    return labels


def nx_accepts_labels(g: EdgeList, labels: np.ndarray) -> bool:
    seen = set()
    for comp in nx.connected_components(to_networkx(g)):
        found = {int(labels[v]) for v in comp}
        if len(found) != 1 or found & seen:
            return False
        seen |= found
    return True


def _multigraph(g: EdgeList, ids) -> nx.MultiGraph:
    h = nx.MultiGraph()
    h.add_nodes_from(range(g.n))
    for e in ids:
        h.add_edge(int(g.u[e]), int(g.v[e]), key=int(e), weight=int(g.w[e]))
    return h


def nx_forest(g: EdgeList) -> np.ndarray:
    edges = nx.minimum_spanning_edges(_multigraph(g, range(g.m)), keys=True, data=False)
    return np.array(sorted(key for _u, _v, key in edges), dtype=np.int64)


def nx_accepts_forest(g: EdgeList, ids: np.ndarray) -> bool:
    ids = [int(e) for e in ids]
    if len(set(ids)) != len(ids) or any(not 0 <= e < g.m for e in ids):
        return False
    chosen = _multigraph(g, ids)
    if g.n and not nx.is_forest(chosen):
        return False
    if nx.number_connected_components(chosen) != nx.number_connected_components(to_networkx(g)):
        return False
    return sum(int(g.w[e]) for e in ids) == sum(int(g.w[e]) for e in nx_forest(g))


def nx_levels(g: EdgeList, source: int, unreached=UNREACHED) -> np.ndarray:
    dist = np.full(g.n, unreached, dtype=np.int64)
    for vertex, level in nx.single_source_shortest_path_length(to_networkx(g), source).items():
        dist[vertex] = level
    return dist


def accepts(check, *args) -> bool:
    try:
        check(*args)
    except (GraphError, VerificationError):
        return False
    return True


# ---------------------------------------------------------------------------
# Perturbations: (rng, graph, correct answer) -> a changed answer, or None
# when the graph has no room for that change.  A changed answer may still
# be correct (relabelling a singleton); the differential decides.
# ---------------------------------------------------------------------------


def cc_relabel_one(rng, g, labels):
    if g.n == 0:
        return None
    out = labels.copy()
    vertex = int(rng.integers(g.n))
    others = np.setdiff1d(np.unique(labels), [labels[vertex]])
    out[vertex] = rng.choice(others) if others.size else g.n + 7
    return out


def cc_merge_two(rng, g, labels):
    found = np.unique(labels)
    if found.size < 2:
        return None
    a, b = rng.choice(found, size=2, replace=False)
    return np.where(labels == b, a, labels)


def cc_split_one(rng, g, labels):
    found, counts = np.unique(labels, return_counts=True)
    big = found[counts >= 2]
    if big.size == 0:
        return None
    members = np.flatnonzero(labels == rng.choice(big))
    out = labels.copy()
    out[members[: members.size // 2]] = g.n + 7
    return out


CC_PERTURBATIONS = {"relabel-one": cc_relabel_one, "merge-two": cc_merge_two, "split-one": cc_split_one}


def mst_swap_heavier(rng, g, ids):
    for e in rng.permutation(ids):
        rest = ids[ids != e]
        side = nx_labels(EdgeList(g.n, g.u[rest], g.v[rest]))
        crossing = np.flatnonzero((side[g.u] != side[g.v]) & (g.w > g.w[e]))
        if crossing.size:
            return np.sort(np.append(rest, rng.choice(crossing)))
    return None


def mst_add_cycle_edge(rng, g, ids):
    others = np.setdiff1d(np.arange(g.m), ids)
    return np.append(ids, rng.choice(others)) if others.size else None


def mst_drop_edge(rng, g, ids):
    return np.delete(ids, rng.integers(ids.size)) if ids.size else None


def mst_duplicate_id(rng, g, ids):
    return np.append(ids, rng.choice(ids)) if ids.size else None


def mst_id_out_of_range(rng, g, ids):
    if ids.size == 0:
        return np.array([rng.choice([-1, g.m])], dtype=np.int64)
    out = ids.copy()
    at = rng.integers(ids.size)
    # ``e - m`` is numpy's alias of edge ``e``: the forest it indexes is
    # the correct one, so only the range clause can refuse it.
    out[at] = rng.choice([g.m, out[at] - g.m])
    return out


MST_PERTURBATIONS = {
    "swap-heavier": mst_swap_heavier,
    "add-cycle-edge": mst_add_cycle_edge,
    "drop-edge": mst_drop_edge,
    "duplicate-id": mst_duplicate_id,
    "id-out-of-range": mst_id_out_of_range,
}


def _reached(dist, source, unreached):
    return np.flatnonzero((dist != unreached) & (np.arange(dist.size) != source))


def bfs_plus_one(rng, g, source, dist, unreached):
    reached = _reached(dist, source, unreached)
    if reached.size == 0:
        return None
    out = dist.copy()
    out[rng.choice(reached)] += 1
    return out


def bfs_minus_one(rng, g, source, dist, unreached):
    reached = _reached(dist, source, unreached)
    if reached.size == 0:
        return None
    out = dist.copy()
    out[rng.choice(reached)] -= 1
    return out


def bfs_mark_unreached(rng, g, source, dist, unreached):
    reached = _reached(dist, source, unreached)
    if reached.size == 0:
        return None
    out = dist.copy()
    out[rng.choice(reached)] = unreached
    return out


def bfs_mark_reached(rng, g, source, dist, unreached):
    lost = np.flatnonzero(dist == unreached)
    if lost.size == 0:
        return None
    out = dist.copy()
    out[rng.choice(lost)] = rng.integers(0, 3)
    return out


def bfs_wrong_source_level(rng, g, source, dist, unreached):
    return np.where(dist == unreached, dist, dist + 1)


BFS_PERTURBATIONS = {
    "plus-one": bfs_plus_one,
    "minus-one": bfs_minus_one,
    "mark-unreached": bfs_mark_unreached,
    "mark-reached": bfs_mark_reached,
    "wrong-source-level": bfs_wrong_source_level,
}
SENTINELS = (int(UNREACHED), -1)

# ---------------------------------------------------------------------------
# The differential: certificate accepts <=> networkx accepts
# ---------------------------------------------------------------------------


def _cc_case(g, labels) -> bool:
    """One labelling through the certificate, without and with the
    reference; returns the (agreed) verdict."""
    verdict = accepts(check_connected_counts, labels, g)
    held = nx.number_connected_components(to_networkx(g))
    assert accepts(check_connected_counts, labels, g, held) == verdict
    assert verdict == nx_accepts_labels(g, labels)
    return verdict


def _mst_case(g, ids) -> bool:
    verdict = accepts(check_spanning_forest, g, ids)
    held = (nx.number_connected_components(to_networkx(g)), int(g.w[nx_forest(g)].sum()))
    assert accepts(check_spanning_forest, g, ids, held) == verdict
    assert verdict == nx_accepts_forest(g, ids)
    return verdict


def _bfs_case(g, source, dist, unreached) -> bool:
    verdict = accepts(check_bfs_levels, dist, g, source, unreached)
    assert verdict == np.array_equal(dist, nx_levels(g, source, unreached))
    return verdict


@given(graphs, st.sampled_from(sorted(CC_PERTURBATIONS)), st.integers(0, 10_000))
def test_cc_certificate_agrees_with_networkx(g, kind, seed):
    labels = nx_labels(g)
    assert _cc_case(g, labels)
    changed = CC_PERTURBATIONS[kind](np.random.default_rng(seed), g, labels)
    if changed is not None:
        _cc_case(g, changed)


@given(
    graphs, st.sampled_from(sorted(WEIGHTS)), st.sampled_from(sorted(MST_PERTURBATIONS)),
    st.integers(0, 10_000),
)
def test_mst_certificate_agrees_with_networkx(g, weights, kind, seed):
    g = _weighted(g, weights, seed)
    ids = nx_forest(g)
    assert _mst_case(g, ids)
    changed = MST_PERTURBATIONS[kind](np.random.default_rng(seed), g, ids)
    if changed is not None:
        _mst_case(g, changed)


@given(
    graphs, st.sampled_from(sorted(BFS_PERTURBATIONS)), st.sampled_from(SENTINELS),
    st.integers(0, 10_000),
)
def test_bfs_certificate_agrees_with_networkx(g, kind, unreached, seed):
    if g.n == 0:
        assert not accepts(check_bfs_levels, np.empty(0, dtype=np.int64), g, 0, unreached)
        return
    rng = np.random.default_rng(seed)
    source = int(rng.integers(g.n))
    dist = nx_levels(g, source, unreached)
    assert _bfs_case(g, source, dist, unreached)
    changed = BFS_PERTURBATIONS[kind](rng, g, source, dist, unreached)
    if changed is not None:
        _bfs_case(g, source, changed, unreached)


# A fixed sweep, so "rejected at least once" does not depend on what
# hypothesis happened to draw.
SWEEP = [(family, n, seed) for family in sorted(FAMILIES) for n in (5, 12) for seed in (0, 1)]


@pytest.mark.parametrize("kind", sorted(CC_PERTURBATIONS))
def test_every_cc_perturbation_class_is_rejected(kind):
    rejected = 0
    for family, n, seed in SWEEP:
        g = _graph(family, n, seed)
        changed = CC_PERTURBATIONS[kind](np.random.default_rng(seed), g, nx_labels(g))
        if changed is not None:
            rejected += not _cc_case(g, changed)
    assert rejected >= 1


@pytest.mark.parametrize("kind", sorted(MST_PERTURBATIONS))
def test_every_mst_perturbation_class_is_rejected(kind):
    rejected = 0
    for family, n, seed in SWEEP:
        for weights in sorted(WEIGHTS):
            g = _weighted(_graph(family, n, seed), weights, seed)
            changed = MST_PERTURBATIONS[kind](np.random.default_rng(seed), g, nx_forest(g))
            if changed is not None:
                rejected += not _mst_case(g, changed)
    assert rejected >= 1


@pytest.mark.parametrize("unreached", SENTINELS)
@pytest.mark.parametrize("kind", sorted(BFS_PERTURBATIONS))
def test_every_bfs_perturbation_class_is_rejected(kind, unreached):
    rejected = 0
    for family, n, seed in SWEEP:
        g = _graph(family, n, seed)
        if g.n == 0:
            continue
        rng = np.random.default_rng(seed)
        source = int(rng.integers(g.n))
        changed = BFS_PERTURBATIONS[kind](rng, g, source, nx_levels(g, source, unreached), unreached)
        if changed is not None:
            rejected += not _bfs_case(g, source, changed, unreached)
    assert rejected >= 1


# ---------------------------------------------------------------------------
# One pinned case per clause: only that clause stands between the wrong
# answer and "verified", so deleting it fails here.
# ---------------------------------------------------------------------------

TWO_EDGES = EdgeList(4, [0, 2], [1, 3])  # components {0,1} and {2,3}
ZERO_TRIANGLE = EdgeList(3, [0, 1, 2], [1, 2, 0], [0, 0, 0])
TRIANGLE = EdgeList(3, [0, 1, 2], [1, 2, 0])


class TestCCClauses:
    def test_shape(self):
        with pytest.raises(GraphError, match="shape"):
            check_connected_counts(np.zeros(3, dtype=np.int64), TWO_EDGES)

    def test_edge_split_with_the_right_count(self):
        # Two labels, two components — but vertex 1 sits with the wrong one.
        with pytest.raises(GraphError, match="splits an edge"):
            check_connected_counts(np.array([0, 2, 2, 2]), TWO_EDGES)

    def test_merged_components_split_no_edge(self):
        with pytest.raises(GraphError, match="1 components, reference says 2"):
            check_connected_counts(np.zeros(4, dtype=np.int64), TWO_EDGES)


class TestMSTClauses:
    def test_needs_weights(self):
        with pytest.raises(VerificationError, match="weighted"):
            check_spanning_forest(TRIANGLE, np.array([0, 1]))
        with pytest.raises(VerificationError, match="weighted"):  # nothing else looks, given a reference
            check_spanning_forest(TRIANGLE, np.array([0, 1]), (1, 0))

    def test_duplicate_id_is_named(self):
        with pytest.raises(VerificationError, match="duplicate edge id"):
            check_spanning_forest(ZERO_TRIANGLE, np.array([0, 0]))

    def test_negative_alias_of_a_forest_edge(self):
        check_spanning_forest(ZERO_TRIANGLE, np.array([0, 2]))
        with pytest.raises(VerificationError, match="out of range"):
            check_spanning_forest(ZERO_TRIANGLE, np.array([0, 2 - 3]))

    def test_zero_weight_cycle(self):
        # Spans, and weighs the minimum: only acyclicity refuses it.
        with pytest.raises(VerificationError, match="cycle"):
            check_spanning_forest(ZERO_TRIANGLE, np.array([0, 1, 2]))

    def test_self_loop_is_a_cycle(self):
        g = EdgeList(2, [0, 0], [0, 1], [0, 0])
        with pytest.raises(VerificationError, match="cycle"):
            check_spanning_forest(g, np.array([0, 1]))

    def test_zero_weight_gap(self):
        # Acyclic, and weighs the minimum: only spanning refuses it.
        with pytest.raises(VerificationError, match="leaves 2 components but the graph has 1"):
            check_spanning_forest(ZERO_TRIANGLE, np.array([0]))

    def test_heavier_spanning_tree(self):
        g = TRIANGLE.with_weights([1, 1, 5])
        with pytest.raises(VerificationError, match="weight 6 != minimum 2"):
            check_spanning_forest(g, np.array([0, 2]))


class TestBFSClauses:
    def test_shape_and_source_range(self):
        with pytest.raises(GraphError, match="shape"):
            check_bfs_levels(np.zeros(2, dtype=np.int64), TRIANGLE, 0, UNREACHED)
        with pytest.raises(GraphError, match="out of range"):
            check_bfs_levels(np.zeros(3, dtype=np.int64), TRIANGLE, 3, UNREACHED)

    def test_every_level_shifted_up(self):
        # Every other clause holds one level up: only the source clause refuses it.
        with pytest.raises(GraphError, match="source 0 is at level 1"):
            check_bfs_levels(np.array([1, 2, 2]), TRIANGLE, 0, UNREACHED)

    def test_neighbour_of_the_source_left_out(self):
        # With -1 as the sentinel the gap looks like one level: only the
        # reached/unreached clause refuses it.
        path = EdgeList(2, [0], [1])
        with pytest.raises(GraphError, match="reached and an unreached"):
            check_bfs_levels(np.array([0, -1]), path, 0, -1)

    def test_level_two_next_to_the_source(self):
        # Vertex 1 has a parent (vertex 2, level 1): only the step clause refuses it.
        with pytest.raises(GraphError, match="more than one"):
            check_bfs_levels(np.array([0, 2, 1]), TRIANGLE, 0, UNREACHED)

    def test_isolated_vertex_marked_reached(self):
        g = EdgeList(3, [0], [1])
        with pytest.raises(GraphError, match="vertex 2 at level 1 has no neighbour one level down"):
            check_bfs_levels(np.array([0, 1, 1]), g, 0, UNREACHED)

    def test_other_component_marked_reached(self):
        # A second "source": levels consistent inside {2,3}, no parent for 2.
        with pytest.raises(GraphError, match="vertex 2 at level 0"):
            check_bfs_levels(np.array([0, 1, 0, 1]), TWO_EDGES, 0, UNREACHED)


# ---------------------------------------------------------------------------
# The reference: equal to networkx when computed, loud when stale
# ---------------------------------------------------------------------------


@given(graphs, st.sampled_from(sorted(WEIGHTS)), st.integers(0, 10_000))
def test_reference_equals_networkx(g, weights, seed):
    g = _weighted(g, weights, seed)
    components = nx.number_connected_components(to_networkx(g))
    assert count_components_reference(g) == components
    assert msf_reference(g) == (components, int(g.w[nx_forest(g)].sum()))


def test_stale_reference_fails_a_correct_answer():
    """A reference held for another graph must not pass silently: the
    correct answer is refused (loud), and no wrong one gets through."""
    g = _weighted(_graph("disconnected", 12, 3), "wide", 3)
    other = _weighted(_graph("random", 12, 4), "wide", 4)
    assert msf_reference(other) != msf_reference(g)
    labels, ids = nx_labels(g), nx_forest(g)
    check_connected_counts(labels, g)
    check_spanning_forest(g, ids)
    with pytest.raises(GraphError, match="reference says"):
        check_connected_counts(labels, g, count_components_reference(other))
    with pytest.raises(VerificationError):
        check_spanning_forest(g, ids, msf_reference(other))
    rng = np.random.default_rng(0)
    for perturb in MST_PERTURBATIONS.values():
        changed = perturb(rng, g, ids)
        assert changed is None or not accepts(
            check_spanning_forest, g, changed, msf_reference(other)
        )
