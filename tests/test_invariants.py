"""Cross-cutting system invariants and differential fuzzing.

These tests pin properties that hold for *every* solve, regardless of
algorithm, machine, or input: accounting conservation, determinism,
monotonicity, and agreement between independent implementations on
arbitrary (multi)graphs — including self-loops and duplicate edges the
generators never produce.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.graph import EdgeList
from repro.mst import check_spanning_forest
from repro.runtime import PGASRuntime, hps_cluster
from tests.oracles import reference_union_find_labels


def solve_pair(graph, machine):
    cc = repro.connected_components(graph, machine)
    return cc


class TestAccountingConservation:
    """Category seconds vs clock seconds: every charged second lands in
    exactly one category; barrier/serialization *waits* appear on clocks
    but in no category, so category totals never exceed clock totals."""

    @pytest.mark.parametrize("impl", ["collective", "naive", "smp", "sv", "cgm"])
    def test_categories_bounded_by_clocks(self, impl):
        g = repro.random_graph(2_000, 6_000, seed=3)
        machine = repro.smp_node(8) if impl == "smp" else hps_cluster(4, 2)
        res = repro.connected_components(g, machine, impl=impl)
        cat_total = res.info.trace.total_thread_seconds()
        clock_total = res.info.sim_time * machine.total_threads
        assert 0 < cat_total <= clock_total * 1.0001

    def test_remote_bytes_zero_on_single_node(self):
        g = repro.random_graph(1_000, 3_000, seed=4)
        res = repro.connected_components(g, repro.smp_node(8), impl="collective")
        assert res.info.trace.counters.remote_bytes == 0

    def test_remote_bytes_positive_on_cluster(self):
        g = repro.random_graph(1_000, 3_000, seed=4)
        res = repro.connected_components(g, hps_cluster(2, 2))
        assert res.info.trace.counters.remote_bytes > 0

    def test_barriers_at_least_iterations(self):
        g = repro.random_graph(1_000, 3_000, seed=4)
        res = repro.connected_components(g, hps_cluster(2, 2))
        assert res.info.trace.counters.barriers >= res.info.iterations


class TestDeterminismAndMonotonicity:
    def test_sim_time_bit_identical_across_runs(self):
        g = repro.random_graph(3_000, 9_000, seed=5)
        a = repro.connected_components(g, hps_cluster(4, 2))
        b = repro.connected_components(g, hps_cluster(4, 2))
        assert a.info.sim_time == b.info.sim_time  # exact, not approx

    def test_per_collective_cost_grows_with_edges(self):
        # Total time may *drop* with density (denser graphs converge in
        # fewer grafting iterations); the per-collective cost must grow.
        n = 5_000
        machine = hps_cluster(4, 2)
        small = repro.connected_components(repro.random_graph(n, 2 * n, seed=6), machine)
        big = repro.connected_components(repro.random_graph(n, 8 * n, seed=6), machine)
        per_small = small.info.sim_time / small.info.trace.counters.collective_calls
        per_big = big.info.sim_time / big.info.trace.counters.collective_calls
        assert per_big > per_small

    def test_wall_time_positive(self):
        g = repro.random_graph(500, 1_000, seed=7)
        res = repro.connected_components(g, hps_cluster(2, 2))
        assert res.info.wall_time > 0

    def test_labels_dtype(self):
        g = repro.random_graph(500, 1_000, seed=7)
        for impl in repro.CC_IMPLS:
            machine = repro.smp_node(4) if impl in ("smp", "sequential") else hps_cluster(2, 2)
            res = repro.connected_components(g, machine, impl=impl)
            assert res.labels.dtype == np.int64


@st.composite
def multigraphs(draw):
    """Arbitrary edge lists: self-loops and duplicates allowed."""
    n = draw(st.integers(1, 50))
    m = draw(st.integers(0, 120))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, m)
    v = rng.integers(0, n, m)
    return EdgeList(n, u, v)


class TestDifferentialFuzzing:
    @given(graph=multigraphs())
    def test_cc_collective_vs_union_find(self, graph):
        got = repro.canonical_labels(
            repro.connected_components(graph, hps_cluster(2, 2)).labels
        )
        expected = repro.canonical_labels(reference_union_find_labels(graph))
        assert np.array_equal(got, expected)

    @given(graph=multigraphs())
    def test_cc_cgm_vs_union_find(self, graph):
        got = repro.canonical_labels(
            repro.connected_components(graph, hps_cluster(2, 2), impl="cgm").labels
        )
        expected = repro.canonical_labels(reference_union_find_labels(graph))
        assert np.array_equal(got, expected)

    @given(graph=multigraphs(), seed=st.integers(0, 100))
    def test_mst_on_multigraphs(self, graph, seed):
        rng = np.random.default_rng(seed)
        weighted = graph.with_weights(rng.integers(0, 50, graph.m))
        res = repro.minimum_spanning_forest(weighted, hps_cluster(2, 2))
        check_spanning_forest(weighted, res.edge_ids)

    @given(graph=multigraphs())
    def test_spanning_forest_edge_count(self, graph):
        sf = repro.spanning_forest(graph, hps_cluster(2, 2))
        cc = repro.connected_components(graph, hps_cluster(2, 2))
        assert sf.num_edges == graph.n - cc.num_components


class TestRuntimeGuards:
    def test_charge_rejects_nan_free_negative(self):
        rt = PGASRuntime(hps_cluster(2, 2))
        with pytest.raises(repro.ReproError):
            rt.charge("Work", -1.0)

    def test_trace_category_typo_loud(self):
        rt = PGASRuntime(hps_cluster(2, 2))
        with pytest.raises(KeyError):
            rt.charge("work", 1.0)  # case-sensitive on purpose

    def test_shared_array_rejects_foreign_indices(self):
        rt = PGASRuntime(hps_cluster(2, 2))
        arr = rt.shared_array(np.arange(10, dtype=np.int64))
        with pytest.raises(repro.ReproError):
            arr.gather(np.array([11]))
