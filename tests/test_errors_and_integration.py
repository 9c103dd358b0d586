"""Exception hierarchy tests and full end-to-end integration runs."""

import numpy as np
import pytest

import repro
from repro.errors import (
    CollectiveError,
    ConfigError,
    ConvergenceError,
    DistributionError,
    FaultError,
    GraphError,
    ReproError,
    ThreadCrash,
    UsageError,
    VerificationError,
)

ALL_ERRORS = [
    ConfigError, DistributionError, CollectiveError, GraphError,
    ConvergenceError, VerificationError, FaultError, ThreadCrash,
]


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", ALL_ERRORS)
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    @pytest.mark.parametrize("exc", ALL_ERRORS)
    def test_raisable_and_catchable_at_base(self, exc):
        instance = (
            ThreadCrash(thread=1, at_time=0.5, recovery=1e-3)
            if exc is ThreadCrash
            else exc("boom")
        )
        with pytest.raises(ReproError):
            raise instance

    def test_config_is_value_error(self):
        assert issubclass(ConfigError, ValueError)

    def test_usage_error_is_a_config_error(self):
        """Callers that catch ConfigError also catch a bad request field."""
        assert issubclass(UsageError, ConfigError)

    def test_verification_is_assertion(self):
        assert issubclass(VerificationError, AssertionError)

    def test_fault_is_runtime_error(self):
        assert issubclass(FaultError, RuntimeError)
        assert issubclass(ThreadCrash, FaultError)

    def test_thread_crash_carries_context(self):
        crash = ThreadCrash(thread=3, at_time=2e-3, recovery=1e-3)
        assert crash.thread == 3
        assert crash.at_time == 2e-3
        assert crash.recovery == 1e-3
        assert "thread 3" in str(crash)

    def test_catchable_at_base(self):
        with pytest.raises(ReproError):
            repro.random_graph(-1, 0)


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_from_docstring(self):
        g = repro.random_graph(2_000, 8_000, seed=0)
        cc = repro.connected_components(g, machine=repro.hps_cluster(4, 2))
        assert cc.num_components >= 1
        gw = repro.with_random_weights(g, seed=1)
        mst = repro.minimum_spanning_forest(gw, machine=repro.hps_cluster(4, 2))
        assert mst.num_edges == 2_000 - cc.num_components


class TestEndToEnd:
    """The full pipeline on a mid-size input: every implementation, every
    machine shape, all self-validated."""

    @pytest.fixture(scope="class")
    def g(self):
        return repro.hybrid_graph(2_000, 8_000, seed=42)

    @pytest.fixture(scope="class")
    def gw(self, g):
        return repro.with_random_weights(g, seed=43)

    def test_cc_all_impls_validate(self, g):
        for impl in repro.CC_IMPLS:
            machine = (
                repro.smp_node(8)
                if impl in ("smp", "sequential")
                else repro.hps_cluster(4, 4)
            )
            repro.connected_components(g, machine, impl=impl, validate=True)

    def test_mst_all_impls_validate(self, gw):
        for impl in repro.MST_IMPLS:
            machine = (
                repro.smp_node(8)
                if impl in ("smp", "kruskal", "prim", "boruvka")
                else repro.hps_cluster(4, 4)
            )
            repro.minimum_spanning_forest(gw, machine, impl=impl, validate=True)

    def test_cc_and_mst_component_structure_agree(self, g, gw):
        cc = repro.connected_components(g, repro.hps_cluster(4, 2))
        mst = repro.minimum_spanning_forest(gw, repro.hps_cluster(4, 2))
        assert mst.num_edges == g.n - cc.num_components
        assert np.array_equal(
            repro.canonical_labels(mst.labels), repro.canonical_labels(cc.labels)
        )

    def test_thread_count_sweep_is_invariant(self, g):
        configs = [(2, 8), (4, 4), (8, 2), (16, 1)]
        labels = [
            repro.connected_components(g, repro.hps_cluster(*cfg)).labels
            for cfg in configs
        ]
        for other in labels[1:]:
            assert np.array_equal(labels[0], other)

    def test_io_roundtrip_through_solver(self, g, tmp_path):
        path = tmp_path / "g.npz"
        repro.save_edgelist(g, path)
        loaded = repro.load_edgelist(path)
        a = repro.connected_components(g, repro.hps_cluster(2, 2)).labels
        b = repro.connected_components(loaded, repro.hps_cluster(2, 2)).labels
        assert np.array_equal(a, b)
