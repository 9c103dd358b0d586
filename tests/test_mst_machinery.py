"""Unit tests for MST internals: packing, winner extraction, hook-cycle
breaking, verification, and the performance model."""

import numpy as np
import pytest

from repro.errors import GraphError, VerificationError
from repro.graph import path_graph, random_graph, with_random_weights
from repro.mst import (
    NO_EDGE,
    break_hook_cycles,
    check_spanning_forest,
    extract_winners,
    pack_candidates,
    solve_mst_collective,
    solve_mst_naive_upc,
    solve_mst_sequential,
    solve_mst_smp,
    unpack_positions,
    unpack_weights,
)
from repro.core import cluster_for_input, sequential_for_input, smp_for_input
from repro.runtime import hps_cluster
from tests.oracles import reference_kruskal


class TestPacking:
    def test_roundtrip(self):
        w = np.array([0, 5, 2**31 - 1], dtype=np.int64)
        pos = np.array([7, 0, 2**32 - 1], dtype=np.int64)
        packed = pack_candidates(w, pos)
        assert np.array_equal(unpack_weights(packed), w)
        assert np.array_equal(unpack_positions(packed), pos)

    def test_min_order_is_weight_then_position(self):
        a = pack_candidates(np.array([5]), np.array([100]))[0]
        b = pack_candidates(np.array([5]), np.array([2]))[0]
        c = pack_candidates(np.array([4]), np.array([10**6]))[0]
        assert c < b < a

    def test_rejects_big_weight(self):
        with pytest.raises(GraphError):
            pack_candidates(np.array([2**31]), np.array([0]))

    def test_rejects_negative(self):
        with pytest.raises(GraphError):
            pack_candidates(np.array([-1]), np.array([0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(GraphError):
            pack_candidates(np.array([1, 2]), np.array([0]))


class TestWinners:
    def test_extract(self):
        minedge = np.full(6, NO_EDGE, dtype=np.int64)
        minedge[2] = pack_candidates(np.array([5]), np.array([9]))[0]
        minedge[4] = pack_candidates(np.array([1]), np.array([3]))[0]
        roots, pos = extract_winners(minedge)
        assert roots.tolist() == [2, 4]
        assert pos.tolist() == [9, 3]

    def test_no_winners(self):
        roots, pos = extract_winners(np.full(4, NO_EDGE, dtype=np.int64))
        assert roots.size == 0


class TestHookCycles:
    def test_mutual_pair_resolved_to_smaller(self):
        parent = np.arange(6)
        parent[2] = 5
        parent[5] = 2
        repaired = break_hook_cycles(parent, np.array([2, 5]))
        assert repaired == 1
        assert parent[2] == 2  # smaller becomes root
        assert parent[5] == 2

    def test_chain_untouched(self):
        parent = np.array([1, 2, 2])
        before = parent.copy()
        break_hook_cycles(parent, np.array([0, 1]))
        assert np.array_equal(parent, before)

    def test_empty(self):
        parent = np.arange(3)
        assert break_hook_cycles(parent, np.empty(0, dtype=np.int64)) == 0


class TestVerification:
    @pytest.fixture
    def g(self):
        return with_random_weights(random_graph(50, 150, seed=1), seed=2)

    def test_accepts_reference(self, g):
        ids, _ = reference_kruskal(g)
        check_spanning_forest(g, ids)

    def test_rejects_duplicate_edge(self, g):
        ids, _ = reference_kruskal(g)
        bad = np.concatenate([ids, ids[:1]])
        with pytest.raises(VerificationError):
            check_spanning_forest(g, bad)

    def test_rejects_cycle(self, g):
        ids, _ = reference_kruskal(g)
        # add one more edge: must close a cycle or break the count
        extra = next(i for i in range(g.m) if i not in set(ids.tolist()))
        with pytest.raises(VerificationError):
            check_spanning_forest(g, np.concatenate([ids, [extra]]))

    def test_rejects_incomplete_forest(self, g):
        ids, _ = reference_kruskal(g)
        with pytest.raises(VerificationError):
            check_spanning_forest(g, ids[:-1])

    def test_rejects_non_minimum(self, g):
        ids, _ = reference_kruskal(g)
        in_forest = set(ids.tolist())
        # swap a forest edge for a strictly heavier non-forest edge that
        # reconnects the same cut (build via replacing max-weight edge
        # with any edge that keeps a forest but raises weight)
        order = np.argsort(g.w[ids])
        for drop in ids[order][::-1]:
            remaining = np.array([e for e in ids if e != drop])
            for cand in np.argsort(g.w)[::-1]:
                if int(cand) in in_forest or g.w[cand] <= g.w[drop]:
                    continue
                trial = np.sort(np.concatenate([remaining, [cand]]))
                try:
                    check_spanning_forest(g, trial)
                except VerificationError as err:
                    if "weight" in str(err):
                        return  # non-minimality detected: test passes
                    continue
                pytest.fail("verifier accepted a non-minimum forest")
        pytest.skip("no heavier replacement edge exists in this instance")

    def test_rejects_out_of_range_id(self, g):
        with pytest.raises(VerificationError):
            check_spanning_forest(g, np.array([g.m]))

    def test_requires_weights(self):
        g = random_graph(10, 20, 1)
        with pytest.raises(VerificationError):
            check_spanning_forest(g, np.empty(0, dtype=np.int64))


class TestPerformanceModel:
    @pytest.fixture(scope="class")
    def g(self):
        return with_random_weights(random_graph(20_000, 80_000, seed=13), seed=14)

    def test_smp_barely_beats_kruskal(self, g):
        # The paper's lock-overhead effect: MST-SMP ~ sequential Kruskal.
        smp = solve_mst_smp(g, smp_for_input(20_000, 16))
        seq = solve_mst_sequential(g, sequential_for_input(20_000))
        ratio = seq.info.sim_time / smp.info.sim_time
        assert 0.5 < ratio < 2.5

    def test_collective_beats_lock_based(self, g):
        cluster = cluster_for_input(20_000, 8, 4)
        coll = solve_mst_collective(g, cluster)
        smp = solve_mst_smp(g, smp_for_input(20_000, 16))
        assert coll.info.sim_time < smp.info.sim_time

    def test_naive_upc_catastrophic(self, g):
        # "We had to abort most of the runs after hours" — modeled time
        # must be enormous relative to the collective rewrite.
        cluster = cluster_for_input(20_000, 8, 4)
        naive = solve_mst_naive_upc(g, cluster)
        coll = solve_mst_collective(g, cluster)
        assert naive.info.sim_time > 30 * coll.info.sim_time

    def test_kruskal_beats_prim_and_boruvka(self, g):
        machine = sequential_for_input(20_000)
        kruskal = solve_mst_sequential(g, machine, "kruskal")
        prim = solve_mst_sequential(g, machine, "prim")
        boruvka = solve_mst_sequential(g, machine, "boruvka")
        assert kruskal.info.sim_time < prim.info.sim_time
        assert kruskal.info.sim_time < boruvka.info.sim_time

    def test_lock_counters_populated(self, g):
        smp = solve_mst_smp(g, smp_for_input(20_000, 16))
        assert smp.info.trace.counters.lock_inits == 20_000
        assert smp.info.trace.counters.lock_ops > 0

    def test_collective_takes_no_locks(self, g):
        coll = solve_mst_collective(g, cluster_for_input(20_000, 8, 4))
        assert coll.info.trace.counters.lock_ops == 0
        assert coll.info.trace.counters.lock_inits == 0

    def test_unknown_algorithm_rejected(self, g):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            solve_mst_sequential(g, algorithm="dijkstra")
