"""Tests for the GetD collective (repro.collectives.getd)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import kernels
from repro.collectives import CollectiveContext, charge_target_ids, getd, send_matrix
from repro.core import OptimizationFlags
from repro.errors import CollectiveError
from repro.runtime import PGASRuntime, PartitionedArray, hps_cluster, smp_node
from repro.runtime.trace import Category


def make_setup(machine, n=500, k=2000, seed=0):
    rt = PGASRuntime(machine)
    arr = rt.shared_array(np.arange(n, dtype=np.int64) * 3)
    idx = PartitionedArray.even(
        np.random.default_rng(seed).integers(0, n, k), machine.total_threads
    )
    return rt, arr, idx


MACHINES = [hps_cluster(2, 2), hps_cluster(4, 1), hps_cluster(1, 4), smp_node(8)]


class TestCorrectness:
    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    def test_matches_fancy_indexing(self, machine):
        rt, arr, idx = make_setup(machine)
        out = getd(rt, arr, idx)
        assert np.array_equal(out, arr.data[idx.data])

    @pytest.mark.parametrize("opts", [OptimizationFlags.none(), OptimizationFlags.all()])
    def test_opts_do_not_change_semantics(self, opts):
        rt, arr, idx = make_setup(hps_cluster(2, 2))
        out = getd(rt, arr, idx, opts, ctx=CollectiveContext(), cache_key="k", hot_value=0)
        assert np.array_equal(out, arr.data[idx.data])

    @pytest.mark.parametrize("tprime", [1, 2, 7, 16])
    def test_tprime_does_not_change_semantics(self, tprime):
        rt, arr, idx = make_setup(hps_cluster(2, 2))
        out = getd(rt, arr, idx, OptimizationFlags.all(), tprime=tprime)
        assert np.array_equal(out, arr.data[idx.data])

    @pytest.mark.parametrize("sort_method", ["count", "quick"])
    def test_sort_method_does_not_change_semantics(self, sort_method):
        rt, arr, idx = make_setup(hps_cluster(2, 2))
        out = getd(rt, arr, idx, sort_method=sort_method)
        assert np.array_equal(out, arr.data[idx.data])

    def test_empty_requests(self):
        rt, arr, _ = make_setup(hps_cluster(2, 2))
        idx = PartitionedArray.empty_like(rt.s)
        out = getd(rt, arr, idx)
        assert out.size == 0

    def test_uneven_request_segments(self):
        rt, arr, _ = make_setup(hps_cluster(2, 2), n=100)
        idx = PartitionedArray(
            np.array([5, 5, 5, 99], dtype=np.int64), np.array([0, 3, 3, 3, 4])
        )
        out = getd(rt, arr, idx)
        assert out.tolist() == [15, 15, 15, 297]

    def test_part_count_mismatch_rejected(self):
        rt, arr, _ = make_setup(hps_cluster(2, 2))
        idx = PartitionedArray.even(np.zeros(8, dtype=np.int64), 2)
        with pytest.raises(CollectiveError):
            getd(rt, arr, idx)

    def test_unknown_sort_rejected(self):
        rt, arr, idx = make_setup(hps_cluster(2, 2))
        with pytest.raises(CollectiveError):
            getd(rt, arr, idx, sort_method="bogus")


class TestOffload:
    def test_hot_requests_answered_locally(self):
        machine = hps_cluster(2, 2)
        rt, arr, _ = make_setup(machine, n=100)
        arr.data[0] = 0
        idx = PartitionedArray.even(np.zeros(400, dtype=np.int64), machine.total_threads)
        out = getd(rt, arr, idx, OptimizationFlags.only("offload"), hot_value=0)
        assert np.all(out == 0)

    def test_offload_reduces_messages(self):
        machine = hps_cluster(2, 2)
        data = np.zeros(400, dtype=np.int64)  # everything targets index 0

        def run(opts, hot):
            rt = PGASRuntime(machine)
            arr = rt.shared_array(np.zeros(100, dtype=np.int64))
            idx = PartitionedArray.even(data.copy(), machine.total_threads)
            getd(rt, arr, idx, opts, hot_value=hot)
            return rt.counters.remote_bytes, rt.elapsed

        bytes_off, time_off = run(OptimizationFlags.only("offload"), 0)
        bytes_on, time_on = run(OptimizationFlags.none(), None)
        assert bytes_off < bytes_on
        assert time_off < time_on

    def test_offload_without_hot_value_is_inert(self):
        machine = hps_cluster(2, 2)
        rt, arr, idx = make_setup(machine)
        out = getd(rt, arr, idx, OptimizationFlags.only("offload"), hot_value=None)
        assert np.array_equal(out, arr.data[idx.data])

    def test_custom_hot_index(self):
        machine = hps_cluster(2, 2)
        rt, arr, _ = make_setup(machine, n=100)
        idx = PartitionedArray.even(np.full(40, 7, dtype=np.int64), machine.total_threads)
        out = getd(
            rt, arr, idx, OptimizationFlags.only("offload"), hot_value=21, hot_index=7
        )
        assert np.all(out == 21)


class TestCommunicationEfficiency:
    def test_at_most_one_message_per_thread_pair(self):
        machine = hps_cluster(4, 2)
        rt, arr, idx = make_setup(machine, n=1000, k=50_000)
        getd(rt, arr, idx)
        s, t = machine.total_threads, machine.threads_per_node
        # Setup writes two matrix entries per ordered thread pair, and the
        # payload is at most one message per cross-node pair — never a
        # per-element count.
        setup_msgs = 2 * s * (s - 1)
        payload_msgs = s * (s - t)
        assert rt.counters.remote_messages <= setup_msgs + payload_msgs
        assert rt.counters.remote_messages < idx.total  # << one per element

    def test_coalesced_beats_fine_grained(self):
        machine = hps_cluster(4, 2)
        rt1, arr1, idx1 = make_setup(machine, n=1000, k=50_000)
        rt2, arr2, idx2 = make_setup(machine, n=1000, k=50_000)
        base1, base2 = rt1.elapsed, rt2.elapsed
        getd(rt1, arr1, idx1)
        rt2.fine_grained_read(arr2, idx2)
        assert rt1.elapsed - base1 < (rt2.elapsed - base2) / 5

    def test_rdma_reduces_comm_time(self):
        machine = hps_cluster(4, 2)

        def run(opts):
            rt, arr, idx = make_setup(machine, n=1000, k=50_000)
            before = dict(rt.trace.category_seconds)
            getd(rt, arr, idx, opts)
            return rt.trace.category_seconds["Comm"] - before["Comm"]

        assert run(OptimizationFlags.only("rdma")) <= run(OptimizationFlags.none())

    def test_circular_no_worse_than_linear(self):
        machine = hps_cluster(4, 2)

        def run(opts):
            rt, arr, idx = make_setup(machine, n=1000, k=50_000)
            getd(rt, arr, idx, opts)
            return rt.trace.category_seconds["Comm"]

        assert run(OptimizationFlags.only("circular")) <= run(OptimizationFlags.none())

    def test_single_node_has_no_remote_traffic(self):
        rt, arr, idx = make_setup(smp_node(8))
        getd(rt, arr, idx)
        assert rt.counters.remote_messages == 0
        assert rt.counters.remote_bytes == 0


class TestIdCache:
    def test_cache_hit_skips_work(self):
        machine = hps_cluster(2, 2)
        ctx = CollectiveContext()
        rt, arr, idx = make_setup(machine)
        opts = OptimizationFlags.only("ids")
        getd(rt, arr, idx, opts, ctx, "edges.u")
        work_after_first = rt.trace.category_seconds["Work"]
        getd(rt, arr, idx, opts, ctx, "edges.u")
        work_delta = rt.trace.category_seconds["Work"] - work_after_first
        assert work_delta == pytest.approx(0.0, abs=1e-12)

    def test_cache_invalidated_on_length_change(self):
        machine = hps_cluster(2, 2)
        ctx = CollectiveContext()
        rt, arr, idx = make_setup(machine)
        opts = OptimizationFlags.only("ids")
        getd(rt, arr, idx, opts, ctx, "edges.u")
        smaller = idx.filter(np.arange(idx.total) % 2 == 0)
        out = getd(rt, arr, smaller, opts, ctx, "edges.u")
        assert np.array_equal(out, arr.data[smaller.data])

    def test_intrinsic_cost_without_ids(self):
        machine = hps_cluster(2, 2)

        def work(opts):
            rt, arr, idx = make_setup(machine, k=20_000)
            base = rt.trace.category_seconds["Work"]
            getd(rt, arr, idx, opts)
            return rt.trace.category_seconds["Work"] - base

        assert work(OptimizationFlags.none()) > work(OptimizationFlags.only("ids"))

    def test_context_invalidate(self):
        ctx = CollectiveContext()
        ctx.id_cache["a"] = 3
        ctx.id_cache["b"] = 2
        ctx.invalidate("a")
        assert "a" not in ctx.id_cache and "b" in ctx.id_cache
        ctx.invalidate()
        assert not ctx.id_cache

    def test_ids_charge_free_on_hit_op_time_on_miss_intrinsic_without_ids(self):
        """The modeled ``ids`` semantics, charge for charge against a
        twin runtime that issues the expected charges by hand."""
        machine = hps_cluster(2, 2)
        _, _, idx = make_setup(machine)
        sizes = idx.sizes().astype(np.float64)
        ids, none = OptimizationFlags.only("ids"), OptimizationFlags.none()
        rt, ref = PGASRuntime(machine), PGASRuntime(machine)
        ctx = CollectiveContext()
        for opts, key, expected in [
            (ids, "k", ref.cost.op_time(sizes)),  # miss: remembered under "k"
            (ids, "k", None),  # hit: free
            (ids, None, ref.cost.op_time(sizes)),  # no key: a miss every time
            (none, "k", ref.cost.intrinsic_id_time(sizes)),  # without ids: the intrinsic
        ]:
            charge_target_ids(rt, idx, opts, ctx, key)
            if expected is not None:
                ref.charge(Category.WORK, expected)
                ref.counters.add(alu_ops=idx.total)
            assert rt.clocks.times.tolist() == ref.clocks.times.tolist()
            assert rt.counters.as_dict() == ref.counters.as_dict()
        assert ctx.id_cache == {"k": idx.total}

    def test_stale_hit_still_counts_the_real_targets(self, monkeypatch):
        """Same key, same length, different targets: the id charge is
        free (the modeled cache hits), and the SMatrix is that of the
        targets actually requested — an owners cache would have
        replayed the first call's."""
        machine = hps_cluster(2, 2)
        rt, arr, first = make_setup(machine, seed=0)
        second = first.with_data(np.sort(first.data))
        backend = kernels.active_backend()
        real = type(backend).exchange_matrix
        seen = []
        monkeypatch.setattr(
            type(backend), "exchange_matrix",
            lambda self, *args: seen.append(real(self, *args)) or seen[-1],
        )
        ctx, opts = CollectiveContext(), OptimizationFlags.only("ids")
        getd(rt, arr, first, opts, ctx, "edges.u")
        work = rt.trace.category_seconds["Work"]
        out = getd(rt, arr, second, opts, ctx, "edges.u")
        assert rt.trace.category_seconds["Work"] == work
        assert np.array_equal(out, arr.data[second.data])
        want = send_matrix(second.thread_ids(), arr.owner_thread(second.data), rt.s)
        assert not np.array_equal(seen[0], want)
        np.testing.assert_array_equal(seen[1], want)


@given(
    n=st.integers(2, 200),
    seed=st.integers(0, 10),
    nodes=st.sampled_from([1, 2, 4]),
    threads=st.sampled_from([1, 2, 3]),
)
def test_property_getd_equals_gather(n, seed, nodes, threads):
    machine = hps_cluster(nodes, threads)
    rt = PGASRuntime(machine)
    arr = rt.shared_array(np.random.default_rng(seed).integers(0, 10**6, n))
    k = np.random.default_rng(seed + 1).integers(0, 4 * n)
    idx = PartitionedArray.even(
        np.random.default_rng(seed + 2).integers(0, n, int(k)), machine.total_threads
    )
    out = getd(rt, arr, idx, OptimizationFlags.all(), tprime=2, hot_value=None)
    assert np.array_equal(out, arr.data[idx.data])
