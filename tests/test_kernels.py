"""The five kernel ops against naive references.

``repro.kernels`` is wall-clock machinery under the collective data
plane; each op here is compared with the slow formulation it replaced
(``np.minimum.at`` into a full-size buffer, a double-loop histogram,
``np.unique`` per block / per thread).  End-to-end bit-identity is the
golden file's job (``tests/test_perf_golden.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.kernels.numpy_backend import NumpyKernels
from repro.runtime.partitioned import PartitionedArray, base_dtype


@pytest.fixture
def backend():
    return kernels.active_backend()


def _histogram(targets, requesters, block, s):
    """The SMatrix by a double loop: ``[owner, requester]`` counts."""
    naive = np.zeros((s, s), dtype=np.int64)
    for t, r in zip(targets, requesters):
        naive[t // block, r] += 1
    return naive


def test_numpy_backend_is_the_default_dispatch():
    assert isinstance(kernels.active_backend(), NumpyKernels)
    assert kernels.backend_name() == "numpy"


class TestOps:
    def test_group_minima_matches_minimum_at(self, backend, rng):
        idx = rng.integers(0, 100, size=2000, dtype=np.int64)
        vals = rng.integers(-50, 10_000, size=2000, dtype=np.int64)
        naive = np.full(100, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(naive, idx, vals)
        targets, minima = backend.group_minima(idx, vals)
        np.testing.assert_array_equal(targets, np.unique(idx))
        np.testing.assert_array_equal(minima, naive[targets])

    def test_group_minima_single_target(self, backend):
        idx = np.zeros(7, dtype=np.int64)
        vals = np.array([5, 3, 9, 3, 8, 4, 6], dtype=np.int64)
        targets, minima = backend.group_minima(idx, vals)
        np.testing.assert_array_equal(targets, [0])
        np.testing.assert_array_equal(minima, [3])

    def test_group_minima_float_nan_propagates_like_minimum_at(self, backend):
        idx = np.array([0, 0, 1, 1], dtype=np.int64)
        vals = np.array([1.0, np.nan, 2.0, 3.0])
        targets, minima = backend.group_minima(idx, vals)
        np.testing.assert_array_equal(targets, [0, 1])
        assert np.isnan(minima[0]) and minima[1] == 2.0

    def test_exchange_matrix_matches_histogram(self, backend, rng):
        size, s = 103, 8  # ragged final block on purpose
        block = -(-size // s)
        requesters = rng.integers(0, s, size=300, dtype=np.int64)
        targets = rng.integers(0, size, size=300, dtype=np.int64)
        got = np.asarray(backend.exchange_matrix(targets, requesters * s, size, block, s))
        np.testing.assert_array_equal(got, _histogram(targets, requesters, block, s))

    @pytest.mark.parametrize("s, width", [(256, np.uint16), (257, np.int32)])
    def test_exchange_matrix_at_the_base_width_boundary(self, backend, rng, s, width):
        """``requester_base`` is stored at its width: uint16 up to 256
        threads (row offsets up to 65 280), int32 above.  The SMatrix of
        a partition whose last requester has the largest offset matches
        the double-loop histogram on both sides of the switch."""
        size = 3 * s + 5
        block = -(-size // s)
        requesters = np.sort(rng.integers(0, s, size=2000, dtype=np.int64))
        requesters[-1] = s - 1
        targets = rng.integers(0, size, size=requesters.size, dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(np.bincount(requesters, minlength=s))))
        base = PartitionedArray(targets, offsets).requester_base()
        assert base.dtype == base_dtype(s) == width
        np.testing.assert_array_equal(base, requesters * s)
        got = np.asarray(backend.exchange_matrix(targets, base, size, block, s))
        np.testing.assert_array_equal(got, _histogram(targets, requesters, block, s))

    def test_exchange_matrix_empty(self, backend):
        empty = np.empty(0, dtype=np.int64)
        got = np.asarray(backend.exchange_matrix(empty, empty, 10, 3, 4))
        np.testing.assert_array_equal(got, np.zeros((4, 4), dtype=np.int64))

    def test_owner_distinct_matches_unique_per_block(self, backend, rng):
        size, s = 103, 8  # ragged final block on purpose
        block = -(-size // s)
        idx = rng.integers(0, size, size=400, dtype=np.int64)
        naive = np.zeros(s, dtype=np.int64)
        for t in range(s):
            lo, hi = t * block, min((t + 1) * block, size) if t < s - 1 else size
            naive[t] = np.unique(idx[(idx >= lo) & (idx < hi)]).size
        got = backend.owner_distinct(idx, size, block, s)
        np.testing.assert_array_equal(got, naive)

    def test_segment_distinct_matches_unique_per_thread(self, backend, rng):
        parts = 6
        tids = np.sort(rng.integers(0, parts, size=300, dtype=np.int64))
        vals = rng.integers(10, 60, size=300, dtype=np.int64)
        vmin, vrange = 10, 50
        naive = np.array(
            [np.unique(vals[tids == t]).size for t in range(parts)], dtype=np.int64
        )
        got = backend.segment_distinct(tids, vals, parts, vmin, vrange)
        np.testing.assert_array_equal(got, naive)

    def test_concat_segments_interleaves(self, backend):
        a_off = np.array([0, 2, 3, 6], dtype=np.int64)
        b_off = np.array([0, 1, 4, 4], dtype=np.int64)  # empty final b-segment
        a = np.array([10, 11, 20, 30, 31, 32], dtype=np.int64)
        b = np.array([100, 200, 201, 202], dtype=np.int64)
        sizes = np.diff(a_off) + np.diff(b_off)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        got = backend.concat_segments(a, a_off, b, b_off, offsets)
        np.testing.assert_array_equal(
            got, [10, 11, 100, 20, 200, 201, 202, 30, 31, 32]
        )
