"""Epoch race detector: seeded-race fixtures, clean twins, solver sweeps,
fault-replay phantom checks, and the bit-identical-time guarantee."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import EpochRaceDetector, analyzed, current_analysis
from repro.core import connected_components, minimum_spanning_forest
from repro.faults import CrashEvent, FaultPlan
from repro.graph import random_graph, with_random_weights
from repro.listrank import random_list, solve_ranks_cgm, solve_ranks_wyllie
from repro.runtime import PGASRuntime
from repro.runtime.partitioned import PartitionedArray


def _from_thread(rt, thread, indices):
    """A request partition in which one thread issues all accesses."""
    offsets = np.zeros(rt.s + 1, dtype=np.int64)
    offsets[thread + 1 :] = len(indices)
    return PartitionedArray(np.asarray(indices, dtype=np.int64), offsets)


# -- seeded-race regression fixtures: a deliberately racy toy SPMD kernel ------


def racy_kernel(rt):
    """Thread 0 plain-stores D[0..8); thread 1 reads the same range in the
    SAME epoch — a textbook intra-epoch read-write conflict (plus the
    stores landing with remote affinity)."""
    d = rt.shared_array(np.zeros(64, dtype=np.int64), name="D")
    idx = np.arange(8, dtype=np.int64)
    rt.fine_grained_write(d, _from_thread(rt, 0, idx), idx + 100, combine="store")
    rt.fine_grained_read(d, _from_thread(rt, 1, idx))
    rt.barrier()
    return d


def clean_twin_kernel(rt):
    """The same accesses with a barrier between them: the write epoch
    closes before the read epoch opens, so there is no conflict."""
    d = rt.shared_array(np.zeros(64, dtype=np.int64), name="D")
    idx = np.arange(8, dtype=np.int64)
    rt.fine_grained_write(d, _from_thread(rt, 0, idx), idx + 100, combine="store")
    rt.barrier()
    rt.fine_grained_read(d, _from_thread(rt, 1, idx))
    rt.barrier()
    return d


class TestSeededRace:
    def test_racy_kernel_flagged(self, tiny_cluster):
        with analyzed() as session:
            racy_kernel(PGASRuntime(tiny_cluster))
        assert session.has_races
        rules = {r.rule for r in session.reports}
        assert "RA02" in rules

    def test_report_names_phase_epoch_threads_indices(self, tiny_cluster):
        with analyzed() as session:
            racy_kernel(PGASRuntime(tiny_cluster))
        rw = next(r for r in session.reports if r.rule == "RA02")
        assert rw.array == "D"
        assert rw.epoch == 0
        assert set(rw.threads) >= {0, 1}
        assert (rw.index_lo, rw.index_hi) == (0, 7)
        assert "fine-read" in rw.phases and "fine-write" in rw.phases
        rendered = rw.render()
        for token in ("RA02", "'D'", "epoch=0", "[0..7]"):
            assert token in rendered

    def test_clean_twin_passes(self, tiny_cluster):
        with analyzed() as session:
            clean_twin_kernel(PGASRuntime(tiny_cluster))
        assert not session.has_races, session.render()

    def test_write_write_conflict(self, tiny_cluster):
        with analyzed() as session:
            rt = PGASRuntime(tiny_cluster)
            d = rt.shared_array(np.zeros(64, dtype=np.int64), name="D")
            rt.fine_grained_write(d, _from_thread(rt, 0, [5, 6]), [1, 1], combine="store")
            rt.fine_grained_write(d, _from_thread(rt, 2, [6, 7]), [2, 2], combine="store")
            rt.barrier()
        assert any(r.rule == "RA01" for r in session.reports)
        ww = next(r for r in session.reports if r.rule == "RA01")
        assert ww.index_lo == ww.index_hi == 6

    def test_combining_writes_are_legal(self, tiny_cluster):
        """Concurrent CRCW-min writes to one location are adjudicated, not
        racy — the paper's SetDMin semantics."""
        with analyzed() as session:
            rt = PGASRuntime(tiny_cluster)
            d = rt.shared_array(np.full(64, 99, dtype=np.int64))
            rt.fine_grained_write(d, _from_thread(rt, 0, [6]), [1], combine="min")
            rt.fine_grained_write(d, _from_thread(rt, 2, [6]), [2], combine="min")
            rt.barrier()
        assert not any(r.rule in ("RA01", "RA02") for r in session.reports)

    def test_remote_affinity_write_warns(self, tiny_cluster):
        """An uncoordinated write to another node's block is the RA03
        discipline warning even when no thread conflicts."""
        with analyzed() as session:
            rt = PGASRuntime(tiny_cluster)
            d = rt.shared_array(np.zeros(64, dtype=np.int64))
            # Thread 0 (node 0) writes into the last thread's block (node 1).
            rt.fine_grained_write(d, _from_thread(rt, 0, [60]), [1], combine="store")
            rt.barrier()
        ra03 = [r for r in session.reports if r.rule == "RA03"]
        assert len(ra03) == 1 and not ra03[0].is_race
        assert ra03[0].locations == 1

    def test_barrier_divergence(self, tiny_cluster):
        """SPMD kernels report per-thread arrivals; unequal counts at a
        global barrier are RA04."""
        with analyzed():
            rt = PGASRuntime(tiny_cluster, analyze=True)
            det = rt.analyzer
            for thread in range(rt.s):
                det.record_thread_barrier(thread)
            det.record_thread_barrier(0)  # thread 0 syncs once more
            rt.barrier()
        assert any(r.rule == "RA04" for r in det.reports)
        div = next(r for r in det.reports if r.rule == "RA04")
        assert 0 not in div.threads  # laggards are the *other* threads

    def test_finalize_analyzes_trailing_epoch(self, tiny_cluster):
        """Asynchronous kernels never barrier; the session close must
        still analyze the open epoch."""
        with analyzed() as session:
            rt = PGASRuntime(tiny_cluster)
            d = rt.shared_array(np.zeros(64, dtype=np.int64))
            idx = np.arange(8, dtype=np.int64)
            rt.fine_grained_write(d, _from_thread(rt, 0, idx), idx, combine="store")
            rt.fine_grained_read(d, _from_thread(rt, 1, idx))
            # no barrier
        assert session.has_races


# -- block-vs-fine conflicts ----------------------------------------------------


class TestBlockConflicts:
    def test_owner_block_write_vs_foreign_fine_write(self, tiny_cluster):
        with analyzed() as session:
            rt = PGASRuntime(tiny_cluster)
            d = rt.shared_array(np.zeros(64, dtype=np.int64))
            rt.owner_block_write(d, 7)
            # Thread 3 plain-stores into thread 0's block, same epoch.
            rt.fine_grained_write(d, _from_thread(rt, 3, [2]), [1], combine="store")
            rt.barrier()
        assert any(r.rule == "RA01" for r in session.reports)

    def test_owner_block_accesses_alone_are_clean(self, tiny_cluster):
        """Block helpers touch disjoint per-thread ranges — never racy."""
        with analyzed() as session:
            rt = PGASRuntime(tiny_cluster)
            d = rt.shared_array(np.zeros(64, dtype=np.int64))
            rt.owner_block_read(d)
            rt.owner_block_write(d, 1)
            rt.owner_masked_write(d, np.arange(64) % 2 == 0, 2)
            rt.owner_indexed_write(d, np.array([0, 20, 40, 60]), 3)
            rt.barrier()
        assert not session.has_races, session.render()


# -- the real solvers under the detector ---------------------------------------


@pytest.fixture(scope="module")
def cc_graph():
    return random_graph(1500, 6000, seed=7)


class TestSolverSweep:
    def test_collective_cc_race_free(self, small_cluster, cc_graph):
        with analyzed() as session:
            connected_components(cc_graph, small_cluster, impl="collective")
        assert not session.has_races, session.render()

    def test_sv_race_free(self, small_cluster, cc_graph):
        with analyzed() as session:
            connected_components(cc_graph, small_cluster, impl="sv")
        assert not session.has_races, session.render()

    def test_collective_mst_race_free(self, small_cluster, cc_graph):
        gw = with_random_weights(cc_graph, seed=8)
        with analyzed() as session:
            minimum_spanning_forest(gw, small_cluster, impl="collective")
        assert not session.has_races, session.render()

    def test_listrank_race_free(self, small_cluster):
        lst = random_list(600, seed=3)
        with analyzed() as session:
            solve_ranks_wyllie(lst, small_cluster)
            solve_ranks_cgm(lst, small_cluster)
        assert not session.has_races, session.render()

    def test_naive_upc_cc_is_flagged(self, small_cluster, cc_graph):
        """The naive translation IS the hazard the paper replaces: the
        detector must call out its uncoordinated remote traffic."""
        with analyzed() as session:
            connected_components(cc_graph, small_cluster, impl="naive")
        rules = {r.rule for r in session.reports}
        assert "RA03" in rules
        assert session.has_races  # async epoch mixes reads and writes

    def test_detector_does_not_change_modeled_time(self, small_cluster, cc_graph):
        base = connected_components(cc_graph, small_cluster, impl="collective")
        with analyzed():
            under = connected_components(cc_graph, small_cluster, impl="collective")
        assert under.info.sim_time == base.info.sim_time
        np.testing.assert_array_equal(under.labels, base.labels)

    def test_detector_does_not_change_mst_time(self, small_cluster, cc_graph):
        gw = with_random_weights(cc_graph, seed=8)
        base = minimum_spanning_forest(gw, small_cluster, impl="collective")
        with analyzed():
            under = minimum_spanning_forest(gw, small_cluster, impl="collective")
        assert under.info.sim_time == base.info.sim_time
        assert under.total_weight == base.total_weight


# -- barrier-epoch accounting under fault injection ----------------------------


class TestCrashReplayEpochs:
    def _crash_plan(self, graph, machine, impl):
        solver = connected_components if impl == "cc" else None
        if impl == "cc":
            base = solver(graph, machine, impl="collective")
        else:
            base = minimum_spanning_forest(graph, machine, impl="collective")
        return FaultPlan(
            seed=1, crashes=(CrashEvent(thread=3, at_time=base.info.sim_time * 0.3),)
        ), base

    def test_cc_crash_replay_no_phantom_conflicts(self, small_cluster, cc_graph):
        plan, base = self._crash_plan(cc_graph, small_cluster, "cc")
        with analyzed() as session:
            res = connected_components(
                cc_graph, small_cluster, impl="collective", faults=plan
            )
        assert res.info.trace.counters.crashes >= 1
        assert not session.has_races, session.render()
        np.testing.assert_array_equal(res.labels, base.labels)

    def test_mst_crash_replay_no_phantom_conflicts(self, small_cluster, cc_graph):
        gw = with_random_weights(cc_graph, seed=8)
        plan, base = self._crash_plan(gw, small_cluster, "mst")
        with analyzed() as session:
            res = minimum_spanning_forest(
                gw, small_cluster, impl="collective", faults=plan
            )
        assert res.info.trace.counters.crashes >= 1
        assert not session.has_races, session.render()
        assert res.total_weight == base.total_weight

    def test_replayed_rounds_register_fresh_epochs(self, small_cluster, cc_graph):
        """A crashed run must close strictly more epochs than a clean one
        (the replayed rounds re-register; nothing is double-counted)."""
        with analyzed() as clean:
            connected_components(cc_graph, small_cluster, impl="collective")
        plan, _ = self._crash_plan(cc_graph, small_cluster, "cc")
        with analyzed() as crashed:
            connected_components(cc_graph, small_cluster, impl="collective", faults=plan)
        assert crashed.detectors[0].epoch > clean.detectors[0].epoch


# -- session/runtime plumbing ---------------------------------------------------


class TestPlumbing:
    def test_analyze_flag_without_session(self, tiny_cluster):
        rt = PGASRuntime(tiny_cluster, analyze=True)
        assert isinstance(rt.analyzer, EpochRaceDetector)
        d = rt.shared_array(np.zeros(16, dtype=np.int64))
        idx = np.arange(4, dtype=np.int64)
        rt.fine_grained_write(d, _from_thread(rt, 0, idx), idx, combine="store")
        rt.fine_grained_read(d, _from_thread(rt, 1, idx))
        rt.analyzer.finalize()
        assert rt.analyzer.has_races

    def test_no_analyzer_by_default(self, tiny_cluster):
        assert PGASRuntime(tiny_cluster).analyzer is None
        assert current_analysis() is None

    def test_shared_detector_instance(self, tiny_cluster):
        det = EpochRaceDetector()
        rt = PGASRuntime(tiny_cluster, analyze=det)
        assert rt.analyzer is det

    def test_array_names(self, tiny_cluster):
        rt = PGASRuntime(tiny_cluster, analyze=True)
        named = rt.shared_array(np.zeros(8, dtype=np.int64), name="labels")
        anon = rt.shared_array(np.zeros(8, dtype=np.int64))
        assert named.name == "labels"
        assert anon.name and anon.name.startswith("shared")

    def test_finalize_idempotent(self, tiny_cluster):
        with analyzed() as session:
            racy_kernel(PGASRuntime(tiny_cluster))
        n = len(session.reports)
        session.finalize()
        assert len(session.reports) == n

    def test_event_cap_truncates_gracefully(self, tiny_cluster):
        det = EpochRaceDetector(max_index_events=10)
        rt = PGASRuntime(tiny_cluster, analyze=det)
        d = rt.shared_array(np.zeros(64, dtype=np.int64))
        idx = np.arange(32, dtype=np.int64)
        rt.fine_grained_write(d, _from_thread(rt, 0, idx), idx, combine="store")
        rt.barrier()
        assert det.truncated_epochs == [0]
        assert "truncated" in det.render()
