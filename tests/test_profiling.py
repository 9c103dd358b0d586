"""Tests for the phase profiler (repro.runtime.profiling)."""

import numpy as np
import pytest

import repro
from repro.collectives import getd, setdmin
from repro.core import OptimizationFlags
from repro.runtime import (
    PGASRuntime,
    PartitionedArray,
    hps_cluster,
    profiled,
    render_phases,
)
from repro.runtime.profiling import current_profile_session


def run_getd(rt, hot=False):
    arr = rt.shared_array(np.arange(1000, dtype=np.int64))
    if hot:
        data = np.zeros(4000, dtype=np.int64)
    else:
        data = np.random.default_rng(0).integers(0, 1000, 4000)
    idx = PartitionedArray.even(data, rt.s)
    getd(rt, arr, idx, OptimizationFlags.none())
    return arr


class TestProfiler:
    def test_disabled_by_default(self):
        rt = PGASRuntime(hps_cluster(2, 2))
        assert rt.profiler is None
        run_getd(rt)  # no error, nothing recorded

    def test_records_collective_calls(self):
        rt = PGASRuntime(hps_cluster(2, 2), profile=True)
        run_getd(rt)
        assert len(rt.profiler.records) == 1
        rec = rt.profiler.records[0]
        assert rec.requests == 4000
        assert rec.duration_s > 0

    def test_hotspot_visible_in_wait_fraction(self):
        rt = PGASRuntime(hps_cluster(4, 2), profile=True)
        run_getd(rt, hot=True)
        run_getd(rt, hot=False)
        hot_rec, flat_rec = rt.profiler.records
        assert hot_rec.wait_fraction > flat_rec.wait_fraction + 0.2
        assert hot_rec.hottest_thread == 0  # vertex 0's owner

    def test_setd_recorded(self):
        rt = PGASRuntime(hps_cluster(2, 2), profile=True)
        arr = rt.shared_array(np.arange(100, dtype=np.int64))
        idx = PartitionedArray.even(np.arange(40, dtype=np.int64), rt.s)
        setdmin(rt, arr, idx, np.zeros(40, dtype=np.int64))
        assert rt.profiler.records[0].name.startswith("setd")

    def test_by_name_and_hottest(self):
        rt = PGASRuntime(hps_cluster(2, 2), profile=True)
        run_getd(rt)
        run_getd(rt)
        totals = rt.profiler.by_name()
        assert sum(totals.values()) == pytest.approx(rt.profiler.total_s())
        assert len(rt.profiler.hottest(1)) == 1

    def test_render(self):
        rt = PGASRuntime(hps_cluster(2, 2), profile=True)
        run_getd(rt)
        out = render_phases(rt.profiler.records)
        assert "getd" in out and "wait frac" in out


class TestProfiledContext:
    def test_session_captures_solves(self):
        g = repro.random_graph(500, 1500, 1)
        with profiled() as session:
            repro.connected_components(g, hps_cluster(2, 2))
        assert len(session.records) > 3
        assert "getd" in session.render()

    def test_session_scoped(self):
        assert current_profile_session() is None
        with profiled() as session:
            assert current_profile_session() is session
        assert current_profile_session() is None

    def test_nested_sessions(self):
        with profiled() as outer:
            with profiled() as inner:
                rt = PGASRuntime(hps_cluster(2, 2))
                run_getd(rt)
            assert len(inner.records) == 1
        # runtime registered with the innermost session only
        assert len(outer.records) == 0

    def test_no_records_outside(self):
        g = repro.random_graph(200, 500, 1)
        with profiled() as session:
            pass
        repro.connected_components(g, hps_cluster(2, 2))
        assert session.records == []

    def test_offload_reduces_wait_fraction_in_profile(self):
        # The profiler demonstrates exactly what offload fixes.
        from repro.graph import star_graph

        star = star_graph(2000)
        with profiled() as off_session:
            repro.connected_components(
                star, hps_cluster(4, 2), opts=OptimizationFlags.none()
            )
        with profiled() as on_session:
            repro.connected_components(
                star, hps_cluster(4, 2), opts=OptimizationFlags.only("offload")
            )
        worst_off = max(r.wait_fraction for r in off_session.records)
        worst_on = max(r.wait_fraction for r in on_session.records)
        assert worst_on <= worst_off + 1e-9
