"""Performance-shape assertions for CC: the paper's qualitative claims
must hold in the simulation (these are the invariants the benchmarks
quantify)."""

import pytest

from repro.cc import solve_cc_collective, solve_cc_naive_upc, solve_cc_sequential, solve_cc_smp
from repro.core import (
    OptimizationFlags,
    cluster_for_input,
    sequential_for_input,
    smp_for_input,
)
from repro.graph import random_graph
from repro.runtime import hps_cluster


@pytest.fixture(scope="module")
def graph():
    return random_graph(20_000, 80_000, seed=21)


@pytest.fixture(scope="module")
def cluster():
    return cluster_for_input(20_000, 8, 4)


class TestOrderings:
    def test_naive_much_slower_than_collective(self, graph, cluster):
        naive = solve_cc_naive_upc(graph, cluster)
        coll = solve_cc_collective(graph, cluster)
        assert naive.info.sim_time > 10 * coll.info.sim_time

    def test_naive_slower_than_smp(self, graph, cluster):
        naive = solve_cc_naive_upc(graph, cluster)
        smp = solve_cc_smp(graph, smp_for_input(20_000, 16))
        assert naive.info.sim_time > 10 * smp.info.sim_time

    def test_smp_faster_than_sequential(self, graph):
        # Both machines calibrated for the same (scaled) input.
        smp = solve_cc_smp(graph, smp_for_input(20_000, 16))
        seq = solve_cc_sequential(graph, sequential_for_input(20_000))
        assert smp.info.sim_time < seq.info.sim_time

    def test_collective_scales_down_with_more_nodes(self, graph):
        small = solve_cc_collective(graph, cluster_for_input(20_000, 4, 4))
        big = solve_cc_collective(graph, cluster_for_input(20_000, 16, 4))
        assert big.info.sim_time < small.info.sim_time


class TestOptimizationsImprove:
    def test_each_cumulative_step_not_slower(self, graph, cluster):
        times = []
        for label, opts in OptimizationFlags.cumulative():
            res = solve_cc_collective(graph, cluster, opts)
            times.append((label, res.info.sim_time))
        for (prev_label, prev), (label, cur) in zip(times, times[1:]):
            assert cur <= prev * 1.02, f"{label} regressed over {prev_label}"

    def test_fully_optimized_strictly_faster_than_base(self, graph, cluster):
        base = solve_cc_collective(graph, cluster, OptimizationFlags.none())
        best = solve_cc_collective(graph, cluster, OptimizationFlags.all())
        assert best.info.sim_time < base.info.sim_time

    def test_compact_reduces_traffic(self, graph, cluster):
        on = solve_cc_collective(graph, cluster, OptimizationFlags.only("compact"))
        off = solve_cc_collective(graph, cluster, OptimizationFlags.none())
        assert on.info.trace.counters.remote_bytes < off.info.trace.counters.remote_bytes

    def test_count_sort_faster_than_quick(self, graph, cluster):
        quick = solve_cc_collective(graph, cluster, sort_method="quick")
        count = solve_cc_collective(graph, cluster, sort_method="count")
        assert count.info.sim_time < quick.info.sim_time


class TestAlltoallCollapse:
    def test_256_threads_degrade(self):
        g = random_graph(10_000, 40_000, seed=3)
        mid = solve_cc_collective(g, cluster_for_input(10_000, 16, 8), tprime=2)
        burst = solve_cc_collective(g, cluster_for_input(10_000, 16, 16), tprime=1)
        assert burst.info.sim_time > 3 * mid.info.sim_time

    def test_setup_dominates_at_collapse(self):
        g = random_graph(10_000, 40_000, seed=3)
        res = solve_cc_collective(g, cluster_for_input(10_000, 16, 16))
        bd = res.info.breakdown()
        assert bd["Setup"] == max(bd.values())


class TestMessageCounts:
    def test_collective_messages_independent_of_edges(self):
        # "each collective incurs O(p) messages" per thread — message
        # count must not scale with m.
        m1 = random_graph(5_000, 10_000, seed=4)
        m2 = random_graph(5_000, 40_000, seed=4)
        cluster = hps_cluster(4, 2)
        r1 = solve_cc_collective(m1, cluster)
        r2 = solve_cc_collective(m2, cluster)
        per_coll_1 = r1.info.trace.counters.remote_messages / max(
            r1.info.trace.counters.collective_calls, 1
        )
        per_coll_2 = r2.info.trace.counters.remote_messages / max(
            r2.info.trace.counters.collective_calls, 1
        )
        assert per_coll_2 < per_coll_1 * 1.5

    def test_naive_messages_scale_with_edges(self):
        m1 = random_graph(5_000, 10_000, seed=4)
        m2 = random_graph(5_000, 40_000, seed=4)
        cluster = hps_cluster(4, 2)
        r1 = solve_cc_naive_upc(m1, cluster)
        r2 = solve_cc_naive_upc(m2, cluster)
        assert (
            r2.info.trace.counters.fine_remote_accesses
            > 2 * r1.info.trace.counters.fine_remote_accesses
        )


class TestTprimeSweep:
    def test_single_node_collective_beats_smp_at_tprime_one(self):
        n = 50_000
        g = random_graph(n, 4 * n, seed=6)
        machine = smp_for_input(n, 16)
        smp = solve_cc_smp(g, machine)
        coll = solve_cc_collective(g, machine, OptimizationFlags.all(), tprime=1)
        assert coll.info.sim_time < smp.info.sim_time

    def test_u_shape_exists(self):
        n = 50_000
        g = random_graph(n, 4 * n, seed=6)
        machine = smp_for_input(n, 16)
        times = {
            tp: solve_cc_collective(g, machine, tprime=tp).info.sim_time
            for tp in (1, 18, 64)
        }
        assert times[18] < times[1]  # falling edge
        assert times[64] > times[18]  # rising edge
