"""Tests for the core API: optimization flags, pipeline dispatch,
results, analysis formulas, calibration."""

import math

import numpy as np
import pytest

from repro.core import (
    CC_IMPLS,
    MST_IMPLS,
    OptimizationFlags,
    canonical_labels,
    cc_computation_ops,
    cc_memory_accesses,
    cc_remote_access_time,
    cc_serialized_comm_time,
    cc_smp_noncontig_time,
    cluster_for_input,
    connected_components,
    machine_for_input,
    minimum_spanning_forest,
    naive_slowdown_estimate,
    section3_table,
    sequential_for_input,
    smp_for_input,
)
from repro.core.calibration import PAPER_N_LARGE
from repro.errors import ConfigError, GraphError
from repro.graph import random_graph, with_random_weights
from repro.runtime import hps_cluster, infiniband_cluster, smp_node


class TestOptimizationFlags:
    def test_none_and_all(self):
        assert OptimizationFlags.none().enabled() == ()
        assert set(OptimizationFlags.all().enabled()) == {
            "compact", "offload", "circular", "localcpy", "ids", "rdma"
        }

    def test_only(self):
        flags = OptimizationFlags.only("compact", "rdma")
        assert flags.compact and flags.rdma and not flags.circular

    def test_only_rejects_unknown(self):
        with pytest.raises(ConfigError):
            OptimizationFlags.only("warp_drive")

    def test_cumulative_matches_fig5_order(self):
        labels = [label for label, _ in OptimizationFlags.cumulative()]
        assert labels == ["base", "compact", "offload", "circular", "localcpy", "id"]

    def test_cumulative_is_monotone_accumulation(self):
        seen = set()
        for _, flags in OptimizationFlags.cumulative():
            now = set(flags.enabled())
            assert seen <= now
            seen = now

    def test_with_(self):
        flags = OptimizationFlags.none().with_(compact=True)
        assert flags.compact
        with pytest.raises(ConfigError):
            flags.with_(bogus=True)

    def test_key(self):
        assert OptimizationFlags.none().key() == "base"
        assert OptimizationFlags.only("rdma", "compact").key() == "compact+rdma"
        assert OptimizationFlags.all().key() == "compact+offload+circular+localcpy+ids+rdma"


class TestPipeline:
    @pytest.fixture(scope="class")
    def g(self):
        return random_graph(150, 400, seed=1)

    @pytest.fixture(scope="class")
    def gw(self):
        return with_random_weights(random_graph(150, 400, seed=1), seed=2)

    @pytest.mark.parametrize("impl", CC_IMPLS)
    def test_cc_dispatch(self, g, impl):
        machine = smp_node(4) if impl in ("smp", "sequential") else hps_cluster(2, 2)
        res = connected_components(g, machine, impl=impl, validate=True)
        assert res.labels.shape == (150,)

    @pytest.mark.parametrize("impl", MST_IMPLS)
    def test_mst_dispatch(self, gw, impl):
        machine = smp_node(4) if impl in ("smp", "kruskal", "prim", "boruvka") else hps_cluster(2, 2)
        res = minimum_spanning_forest(gw, machine, impl=impl, validate=True)
        assert res.total_weight > 0

    def test_unknown_impl(self, g, gw):
        with pytest.raises(ConfigError):
            connected_components(g, impl="magic")
        with pytest.raises(ConfigError):
            minimum_spanning_forest(gw, impl="magic")

    def test_validate_catches_nothing_on_good_run(self, g):
        connected_components(g, hps_cluster(2, 2), validate=True)

    def test_mst_requires_weights(self, g):
        with pytest.raises(GraphError):
            minimum_spanning_forest(g, hps_cluster(2, 2))

    def test_default_machine_is_paper_cluster(self, g):
        res = connected_components(g)
        assert res.info.machine.nodes == 16


class TestCanonicalLabels:
    def test_empty(self):
        assert canonical_labels(np.empty(0, dtype=np.int64)).size == 0

    def test_maps_to_min_member(self):
        labels = np.array([7, 7, 3, 3, 9])
        out = canonical_labels(labels)
        assert out.tolist() == [0, 0, 2, 2, 4]

    def test_partition_invariance(self):
        a = np.array([5, 5, 1, 1])
        b = np.array([2, 2, 8, 8])
        assert np.array_equal(canonical_labels(a), canonical_labels(b))

    def test_different_partitions_differ(self):
        a = np.array([0, 0, 1])
        b = np.array([0, 1, 1])
        assert not np.array_equal(canonical_labels(a), canonical_labels(b))


class TestAnalysis:
    def test_eq1_eq2_scale_inversely_with_p(self):
        assert cc_computation_ops(10**6, 4 * 10**6, 2) > cc_computation_ops(
            10**6, 4 * 10**6, 8
        )
        assert cc_memory_accesses(10**6, 4 * 10**6, 2) > cc_memory_accesses(
            10**6, 4 * 10**6, 8
        )

    def test_eq2_formula(self):
        n, m, p = 1024, 4096, 4
        expected = n * math.log2(n) ** 2 / p + (m / p + 2) * math.log2(n)
        assert cc_memory_accesses(n, m, p) == pytest.approx(expected)

    def test_eq3_zero_on_one_node(self):
        assert cc_remote_access_time(1000, 4000, hps_cluster(1, 4)) == 0.0

    def test_serialized_time_exceeds_per_thread_time(self):
        m = hps_cluster(16, 16)
        assert cc_serialized_comm_time(10**6, 4 * 10**6, m) > cc_remote_access_time(
            10**6, 4 * 10**6, m
        )

    def test_slowdown_estimate_near_paper_20x(self):
        est = naive_slowdown_estimate()  # IB/DDR3 constants
        assert 10 < est < 30

    def test_slowdown_larger_on_hps(self):
        assert naive_slowdown_estimate(hps_cluster()) > naive_slowdown_estimate(
            infiniband_cluster()
        )

    def test_smp_noncontig_positive(self):
        assert cc_smp_noncontig_time(10**6, 4 * 10**6, smp_node(16)) > 0

    def test_section3_table_rows(self):
        rows = section3_table(10**6, 4 * 10**6, infiniband_cluster())
        assert len(rows) == 6
        assert all(row.render() for row in rows)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            cc_computation_ops(10, 10, 0)


class TestCalibration:
    def test_scales_cache_and_per_call(self):
        base = hps_cluster(4, 4)
        m = machine_for_input(base, PAPER_N_LARGE // 1000)
        assert m.cache.size_bytes == pytest.approx(base.cache.size_bytes / 1000, rel=0.01)
        assert m.per_call_scale == pytest.approx(1 / 1000)

    def test_identity_at_paper_scale(self):
        base = hps_cluster(4, 4)
        m = machine_for_input(base, PAPER_N_LARGE)
        assert m.cache.size_bytes == base.cache.size_bytes
        assert m.per_call_scale == 1.0

    def test_helpers_produce_expected_shapes(self):
        assert cluster_for_input(10_000, 8, 4).total_threads == 32
        assert smp_for_input(10_000, 8).nodes == 1
        assert sequential_for_input(10_000).total_threads == 1

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            machine_for_input(hps_cluster(2, 2), 0)
