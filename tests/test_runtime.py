"""Tests for the PGASRuntime façade (repro.runtime.runtime)."""

import numpy as np
import pytest

from repro.errors import CollectiveError
from repro.runtime import (
    Category,
    PGASRuntime,
    PartitionedArray,
    hps_cluster,
    sequential_machine,
)


@pytest.fixture
def rt():
    return PGASRuntime(hps_cluster(2, 2))


class TestChargingPrimitives:
    def test_charge_advances_clocks_and_trace(self, rt):
        rt.charge(Category.WORK, 1e-3)
        assert rt.elapsed == pytest.approx(1e-3)
        assert rt.trace.category_seconds[Category.WORK] == pytest.approx(4e-3)

    def test_charge_comm_serializes_by_default(self, rt):
        rt.charge_comm(np.array([1e-3, 1e-3, 0.0, 0.0]))
        # threads 0,1 share node 0: each advances by the node total.
        assert rt.clocks.times[0] == pytest.approx(2e-3)
        assert rt.clocks.times[2] == 0.0

    def test_charge_comm_parallel_mode(self, rt):
        rt.charge_comm(np.array([1e-3, 1e-3, 0.0, 0.0]), serialize=False)
        assert rt.clocks.times[0] == pytest.approx(1e-3)

    def test_charge_thread(self, rt):
        rt.charge_thread(Category.SORT, 1, 5e-4)
        assert rt.clocks.times[1] == pytest.approx(5e-4)
        assert rt.trace.category_seconds[Category.SORT] == pytest.approx(5e-4)

    def test_barrier_counts(self, rt):
        rt.barrier()
        assert rt.counters.barriers == 1

    def test_local_helpers_update_counters(self, rt):
        rt.local_random_access(10, 1e6)
        rt.local_stream(100)
        rt.local_ops(50)
        assert rt.counters.local_random_accesses == 40  # 10 per thread x 4
        assert rt.counters.local_seq_elements >= 400
        assert rt.counters.alu_ops == 200


class TestSharedArrayAllocation:
    def test_allocation_charges_init(self, rt):
        before = rt.elapsed
        rt.shared_array(np.arange(1000, dtype=np.int64))
        assert rt.elapsed > before

    def test_allocation_counts_elements(self, rt):
        rt.shared_array(np.arange(64, dtype=np.int64))
        assert rt.counters.local_seq_elements == 64


class TestAllreduce:
    def test_reduces_or(self, rt):
        assert rt.allreduce_flag(np.array([False, True, False, False]))
        assert not rt.allreduce_flag(np.zeros(4, dtype=bool))

    def test_requires_one_flag_per_thread(self, rt):
        with pytest.raises(CollectiveError):
            rt.allreduce_flag(np.array([True]))

    def test_synchronizes_clocks(self, rt):
        rt.clocks.charge(np.array([0.0, 1e-3, 0.0, 0.0]))
        rt.allreduce_flag(np.zeros(4, dtype=bool))
        assert rt.clocks.skew() == 0.0

    def test_single_thread(self):
        rt = PGASRuntime(sequential_machine())
        assert rt.allreduce_flag(np.array([True]))


class TestFineGrained:
    def _indices(self, rt, values):
        return PartitionedArray.even(np.asarray(values, dtype=np.int64), rt.s)

    def test_read_returns_values(self, rt):
        arr = rt.shared_array(np.arange(100, dtype=np.int64) * 2)
        idx = self._indices(rt, [5, 60, 99, 0])
        out = rt.fine_grained_read(arr, idx)
        assert out.tolist() == [10, 120, 198, 0]

    def test_remote_accesses_counted(self, rt):
        arr = rt.shared_array(np.arange(100, dtype=np.int64))
        # thread 0 (node 0) requesting index 99 (node 1) is remote
        idx = PartitionedArray(np.array([99, 0, 0, 0], dtype=np.int64), np.array([0, 1, 2, 3, 4]))
        rt.fine_grained_read(arr, idx)
        assert rt.counters.fine_remote_accesses >= 1

    def test_local_access_cheaper_than_remote(self):
        m = hps_cluster(2, 2)
        rt_local, rt_remote = PGASRuntime(m), PGASRuntime(m)
        a1 = rt_local.shared_array(np.arange(100, dtype=np.int64))
        a2 = rt_remote.shared_array(np.arange(100, dtype=np.int64))
        base1, base2 = rt_local.elapsed, rt_remote.elapsed
        # all-local: each thread reads its own block's first element
        local_idx = PartitionedArray(
            np.array([0, 25, 50, 75], dtype=np.int64), np.arange(5, dtype=np.int64)
        )
        # all-remote: each thread reads from the other node
        remote_idx = PartitionedArray(
            np.array([99, 99, 0, 0], dtype=np.int64), np.arange(5, dtype=np.int64)
        )
        rt_local.fine_grained_read(a1, local_idx)
        rt_remote.fine_grained_read(a2, remote_idx)
        assert rt_remote.elapsed - base2 > rt_local.elapsed - base1

    def test_write_min_semantics(self, rt):
        arr = rt.shared_array(np.arange(100, dtype=np.int64))
        idx = self._indices(rt, [10, 10, 20, 30])
        changed = rt.fine_grained_write(arr, idx, np.array([5, 7, 100, 1]))
        assert arr.data[10] == 5
        assert arr.data[20] == 20  # min keeps smaller existing value
        assert arr.data[30] == 1
        assert changed == 2

    def test_write_store_requires_unique(self, rt):
        arr = rt.shared_array(np.arange(100, dtype=np.int64))
        idx = self._indices(rt, [10, 10, 20, 30])
        with pytest.raises(CollectiveError):
            rt.fine_grained_write(arr, idx, np.zeros(4, dtype=np.int64), combine="store")

    def test_write_store_min(self, rt):
        arr = rt.shared_array(np.arange(100, dtype=np.int64))
        idx = self._indices(rt, [3, 3, 4, 5])
        rt.fine_grained_write(arr, idx, np.array([50, 40, 1, 2]), combine="store_min")
        assert arr.data[3] == 40  # raised: store semantics
        assert arr.data[4] == 1

    def test_write_unknown_combine(self, rt):
        arr = rt.shared_array(np.arange(10, dtype=np.int64))
        idx = self._indices(rt, [1, 2, 3, 4])
        with pytest.raises(CollectiveError):
            rt.fine_grained_write(arr, idx, np.zeros(4, dtype=np.int64), combine="max")

    def test_write_length_mismatch(self, rt):
        arr = rt.shared_array(np.arange(10, dtype=np.int64))
        idx = self._indices(rt, [1, 2, 3, 4])
        with pytest.raises(CollectiveError):
            rt.fine_grained_write(arr, idx, np.zeros(3, dtype=np.int64))


class TestSplitLocalRemote:
    def test_split_counts(self, rt):
        arr = rt.shared_array(np.arange(100, dtype=np.int64))
        # threads: 0,1 on node 0 (own 0..49); 2,3 on node 1 (own 50..99)
        idx = PartitionedArray(
            np.array([0, 99, 0, 99], dtype=np.int64), np.arange(5, dtype=np.int64)
        )
        local, remote = rt.split_local_remote(arr, idx)
        assert local.tolist() == [1, 0, 0, 1]
        assert remote.tolist() == [0, 1, 1, 0]
