"""Semantic pinning of the CC implementations: determinism, snapshot
grafting, convergence structure, result metadata."""

import numpy as np
import pytest

from repro.cc import (
    graft_proposals,
    is_all_stars,
    iteration_bound,
    solve_cc_collective,
    solve_cc_smp,
    solve_cc_sv,
)
from repro.cc.common import check_converged
from repro.core import OptimizationFlags
from repro.errors import ConvergenceError
from repro.graph import path_graph, random_graph, star_graph
from repro.runtime import hps_cluster, smp_node


class TestGraftProposals:
    def test_hooks_larger_root_onto_smaller_label(self):
        # edge (u, v) with D[u]=1 < D[v]=5 and 5 a root: D[5] <- 1
        du = np.array([1])
        dv = np.array([5])
        ddu = np.array([1])
        ddv = np.array([5])
        step = graft_proposals(du, dv, ddu, ddv)
        assert step.targets.tolist() == [5]
        assert step.values.tolist() == [1]

    def test_symmetric_direction(self):
        step = graft_proposals(
            np.array([5]), np.array([1]), np.array([5]), np.array([1])
        )
        assert step.targets.tolist() == [5]
        assert step.values.tolist() == [1]

    def test_no_graft_when_target_not_root(self):
        # D[v]=5 but D[5]=2 (5 is not a root): no proposal.
        step = graft_proposals(
            np.array([1]), np.array([5]), np.array([1]), np.array([2])
        )
        assert step.targets.size == 0

    def test_no_graft_within_component(self):
        step = graft_proposals(
            np.array([3]), np.array([3]), np.array([3]), np.array([3])
        )
        assert step.targets.size == 0
        assert step.sel.size == 0

    def test_every_edge_proposing_needs_no_selection(self):
        # Rooted stars + distinct endpoints (CC after compact): all propose.
        du, dv = np.array([1, 5]), np.array([4, 2])
        step = graft_proposals(du, dv, du, dv)
        assert step.sel.tolist() == [0, 1]
        assert (step.targets.tolist(), step.values.tolist()) == ([4, 5], [1, 2])

    def test_live_marks_cross_edges(self):
        # Only the cross edge proposes; `sel` names it by position.
        step = graft_proposals(
            np.array([1, 2]), np.array([1, 7]), np.array([1, 2]), np.array([1, 7])
        )
        assert step.sel.tolist() == [1]
        assert (step.targets.tolist(), step.values.tolist()) == ([7], [2])


class TestDeterminism:
    MACHINES = [hps_cluster(2, 2), hps_cluster(4, 1), hps_cluster(1, 4), hps_cluster(8, 2)]

    def test_labels_identical_across_machine_shapes(self):
        g = random_graph(300, 700, seed=11)
        results = [solve_cc_collective(g, m).labels for m in self.MACHINES]
        for other in results[1:]:
            assert np.array_equal(results[0], other)

    def test_labels_identical_across_optimization_sets(self):
        g = random_graph(300, 700, seed=11)
        base = solve_cc_collective(g, hps_cluster(2, 2), OptimizationFlags.none()).labels
        for _, opts in OptimizationFlags.cumulative():
            got = solve_cc_collective(g, hps_cluster(2, 2), opts).labels
            assert np.array_equal(got, base)

    def test_collective_matches_smp_labels_exactly(self):
        # Same snapshot semantics + min adjudication => identical label
        # arrays, not merely identical partitions.
        g = random_graph(250, 600, seed=4)
        a = solve_cc_collective(g, hps_cluster(2, 2)).labels
        b = solve_cc_smp(g, smp_node(8)).labels
        assert np.array_equal(a, b)

    def test_repeat_runs_identical(self):
        g = random_graph(200, 500, seed=5)
        a = solve_cc_collective(g, hps_cluster(2, 2))
        b = solve_cc_collective(g, hps_cluster(2, 2))
        assert np.array_equal(a.labels, b.labels)
        assert a.info.sim_time == pytest.approx(b.info.sim_time)


class TestConvergenceStructure:
    def test_final_state_is_rooted_stars(self):
        g = random_graph(200, 500, seed=6)
        labels = solve_cc_collective(g, hps_cluster(2, 2)).labels
        assert is_all_stars(labels)

    def test_iterations_logarithmic(self):
        g = path_graph(512)  # worst case depth
        res = solve_cc_collective(g, hps_cluster(2, 2))
        assert res.info.iterations <= iteration_bound(512)

    def test_iteration_bound_guard(self):
        with pytest.raises(ConvergenceError):
            check_converged(10**6, 100, "test loop")

    def test_num_components(self):
        from repro.graph import disjoint_components_graph

        g = disjoint_components_graph(5, 20, seed=1)
        res = solve_cc_collective(g, hps_cluster(2, 2))
        assert res.num_components == 5

    def test_sv_needs_no_more_iterations_than_bound(self):
        g = path_graph(256)
        res = solve_cc_sv(g, hps_cluster(2, 2))
        assert res.info.iterations <= iteration_bound(256)

    def test_canonical_idempotent(self):
        g = random_graph(100, 250, seed=2)
        res = solve_cc_collective(g, hps_cluster(2, 2))
        c1 = res.canonical()
        import repro.core as core

        assert np.array_equal(core.canonical_labels(c1), c1)


class TestResultMetadata:
    def test_info_fields(self):
        g = random_graph(100, 250, seed=2)
        res = solve_cc_collective(g, hps_cluster(2, 2))
        assert res.info.impl == "cc-collective"
        assert res.info.sim_time > 0
        assert res.info.wall_time > 0
        assert res.info.iterations >= 1
        assert res.info.sim_time_ms == pytest.approx(res.info.sim_time * 1e3)

    def test_breakdown_covers_categories(self):
        g = random_graph(100, 250, seed=2)
        res = solve_cc_collective(g, hps_cluster(2, 2))
        bd = res.info.breakdown()
        assert set(bd) == {"Comm", "Sort", "Copy", "Irregular", "Setup", "Work", "Retry", "Fault"}
        assert sum(bd.values()) > 0

    def test_describe_mentions_impl(self):
        g = random_graph(50, 100, seed=2)
        res = solve_cc_smp(g, smp_node(4))
        assert "cc-smp" in res.info.describe()

    def test_counters_track_collectives(self):
        g = random_graph(100, 250, seed=2)
        res = solve_cc_collective(g, hps_cluster(2, 2))
        assert res.info.trace.counters.collective_calls > 0
        assert res.info.trace.counters.iterations == res.info.iterations


class TestHotspotBehaviour:
    def test_star_graph_offload_effect(self):
        # All grafting traffic converges on vertex 0's owner; offload
        # must strictly reduce communicated bytes.
        g = star_graph(600)
        m = hps_cluster(4, 2)
        on = solve_cc_collective(g, m, OptimizationFlags.only("offload"))
        off = solve_cc_collective(g, m, OptimizationFlags.none())
        assert np.array_equal(on.labels, off.labels)
        assert (
            on.info.trace.counters.remote_bytes < off.info.trace.counters.remote_bytes
        )
