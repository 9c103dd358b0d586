"""Tests for the CGM CC baseline and the spanning-forest API."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.cc import solve_cc_cgm
from repro.core import canonical_labels, cluster_for_input, sequential_for_input
from repro.graph import disjoint_components_graph, path_graph, random_graph
from repro.runtime import hps_cluster, smp_node
from tests.oracles import reference_kruskal


class TestCgmCorrectness:
    def test_matches_collective_on_family(self, any_graph):
        a = canonical_labels(solve_cc_cgm(any_graph, hps_cluster(4, 2)).labels)
        b = canonical_labels(
            repro.connected_components(any_graph, hps_cluster(4, 2)).labels
        )
        assert np.array_equal(a, b)

    def test_single_node_machine(self):
        g = random_graph(200, 500, 3)
        res = solve_cc_cgm(g, smp_node(8))
        repro.connected_components(g, smp_node(8), impl="cgm", validate=True)
        assert res.num_components >= 1

    def test_odd_node_count(self):
        g = random_graph(300, 700, 4)
        res = solve_cc_cgm(g, hps_cluster(3, 2))
        b = canonical_labels(repro.connected_components(g, hps_cluster(3, 2)).labels)
        assert np.array_equal(canonical_labels(res.labels), b)

    def test_empty_graph(self):
        from repro.graph import empty_graph

        res = solve_cc_cgm(empty_graph(10), hps_cluster(2, 2))
        assert res.num_components == 10

    def test_rounds_are_logarithmic_in_nodes(self):
        g = random_graph(500, 1500, 5)
        res = solve_cc_cgm(g, hps_cluster(16, 1))
        assert res.info.iterations <= 6  # 1 local + ceil(log2 16) + final

    def test_message_count_is_tiny(self):
        # The whole point of CGM: O(p) coalesced messages, not O(m).
        g = random_graph(5_000, 20_000, 6)
        res = solve_cc_cgm(g, hps_cluster(8, 2))
        assert res.info.trace.counters.remote_messages < 3 * 8

    @given(n=st.integers(2, 80), seed=st.integers(0, 10))
    def test_property_matches_oracle(self, n, seed):
        m = min(3 * n, n * (n - 1) // 2)
        g = random_graph(n, m, seed)
        a = canonical_labels(solve_cc_cgm(g, hps_cluster(2, 2)).labels)
        b = canonical_labels(
            repro.connected_components(g, hps_cluster(2, 2), impl="sequential").labels
        )
        assert np.array_equal(a, b)


class TestThesisShape:
    """The paper's Section I argument, as invariants."""

    @pytest.fixture(scope="class")
    def setup(self):
        n = 30_000
        g = random_graph(n, 4 * n, seed=7)
        return n, g

    def test_collective_beats_cgm(self, setup):
        n, g = setup
        cluster = cluster_for_input(n, 16, 8)
        cgm = repro.connected_components(g, cluster, impl="cgm")
        coll = repro.connected_components(g, cluster, impl="collective", tprime=2)
        assert coll.info.sim_time < cgm.info.sim_time / 3

    def test_cgm_no_faster_than_sequential(self, setup):
        # log p serial union-finds on the critical path ~ sequential time.
        n, g = setup
        cgm = repro.connected_components(g, cluster_for_input(n, 16, 8), impl="cgm")
        seq = repro.connected_components(
            g, sequential_for_input(n), impl="sequential"
        )
        assert cgm.info.sim_time > 0.5 * seq.info.sim_time

    def test_cgm_messages_fewer_but_time_larger(self, setup):
        n, g = setup
        cluster = cluster_for_input(n, 16, 8)
        cgm = repro.connected_components(g, cluster, impl="cgm")
        coll = repro.connected_components(g, cluster, impl="collective", tprime=2)
        assert (
            cgm.info.trace.counters.remote_messages
            < coll.info.trace.counters.remote_messages / 100
        )
        assert cgm.info.sim_time > coll.info.sim_time


class TestSpanningForest:
    def test_valid_forest(self):
        g = random_graph(300, 900, 8)
        sf = repro.spanning_forest(g, hps_cluster(4, 2), validate=True)
        cc = repro.connected_components(g, hps_cluster(4, 2))
        assert sf.num_edges == g.n - cc.num_components

    def test_earliest_id_forest(self):
        # With unit weights the tie-break is pure edge id, matching the
        # reference Kruskal on unit weights.
        g = random_graph(100, 300, 9)
        unit = g.with_weights(np.ones(g.m, dtype=np.int64))
        ref_ids, _ = reference_kruskal(unit)
        sf = repro.spanning_forest(g, hps_cluster(2, 2))
        assert np.array_equal(np.sort(sf.edge_ids), ref_ids)

    def test_disconnected(self):
        g = disjoint_components_graph(4, 20, 1)
        sf = repro.spanning_forest(g, hps_cluster(2, 2), validate=True)
        assert sf.num_edges == g.n - 4

    def test_machine_invariant(self):
        g = path_graph(64)
        a = repro.spanning_forest(g, hps_cluster(2, 4)).edge_ids
        b = repro.spanning_forest(g, hps_cluster(8, 1)).edge_ids
        assert np.array_equal(a, b)

    def test_total_weight_equals_edge_count(self):
        g = random_graph(150, 400, 10)
        sf = repro.spanning_forest(g, hps_cluster(2, 2))
        assert sf.total_weight == sf.num_edges
