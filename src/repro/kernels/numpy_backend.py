"""The NumPy kernels: the data plane's hot loops, sort-free.

Each op makes the fewest passes over its request vector that plain
NumPy allows: CRCW adjudication is a presence mask plus a streaming
``np.minimum.at`` into pooled scratch (the paper's owner-side
min-reduction; no sort), the pair-count SMatrix is one requester-major
key pass straight from the request targets (no owner-id vector) through
the pooled arena, distinct counts are presence masks, and the
per-thread interleave is one ``concatenate`` of segment views.

The ops traffic in plain arrays and scalars, never in
:class:`~repro.runtime.shared_array.SharedArray` or
:class:`~repro.runtime.partitioned.PartitionedArray` objects: argument
validation and cost accounting stay at the call sites.  Each has an
op-level reference (``np.minimum.at``, a histogram, ``np.unique`` per
block, a per-segment loop) in ``tests/test_kernels.py`` and
``tests/test_data_plane.py``.
"""

from __future__ import annotations

import numpy as np

from ..perf import arena

__all__ = ["NumpyKernels"]


class NumpyKernels:
    """The five kernel ops (:data:`repro.kernels.KERNEL_OPS`)."""

    def group_minima(self, idx: np.ndarray, vals: np.ndarray):
        """Min-reduce duplicate scatter targets without sorting.

        Returns ``(targets, minima)``: ascending unique target indices
        and the minimum value proposed for each — the adjudication core
        of ``SharedArray.scatter_min`` / ``scatter_store_min``.
        ``np.minimum.at`` is streamed into a proposal buffer over
        ``[0, idx.max()]`` (``idx`` is non-negative int64: callers
        bounds-check it against their array).  Targets come from a
        presence mask, never from a sentinel, so a proposal equal to
        the dtype's maximum survives.
        """
        if idx.size == 0:
            return idx[:0], vals[:0]
        span = int(idx.max()) + 1
        with arena.lease(span, np.bool_, clear=True) as present:
            present[idx] = True
            targets = np.flatnonzero(present)
        with arena.lease(span, vals.dtype) as best:
            if vals.dtype.kind in "iu":
                best[targets] = np.iinfo(vals.dtype).max
            else:
                # Any proposal is a valid start; NaN still propagates, since
                # minimum.at sees every proposal of the group.
                best[idx] = vals
            with np.errstate(invalid="ignore"):  # minimum.at flags a NaN proposal; np.minimum does not
                np.minimum.at(best, idx, vals)
            return targets, best[targets]

    def exchange_matrix(
        self, targets: np.ndarray, base: np.ndarray, size: int, block: int, s: int
    ) -> np.ndarray:
        """The ``(s, s)`` SMatrix of a request vector: ``[owner,
        requester]`` counts, where ``targets`` are the requested indices
        of a blocked array of ``size`` elements (already validated to
        ``[0, size)``) and ``base[i]`` is ``s`` times the requester of
        position ``i`` (``PartitionedArray.requester_base``).  With
        ``block = 1`` and ``size = s`` the targets are owner ids
        (``collectives.alltoall.send_matrix``)."""
        # One key pass into pooled scratch, straight from the targets:
        # the owner ids are never materialised on their own.  Keys are
        # requester-major: a partition's requesters are sorted, so the
        # hot bins of one requester are `s` adjacent counters instead
        # of a stride-`s` walk over the whole table.
        with arena.lease(targets.size, np.int64) as keys:
            np.floor_divide(targets, block, out=keys)
            if s * block < size:
                # Custom block: indices past the last block belong to the last thread.
                np.minimum(keys, s - 1, out=keys)
            keys += base
            by_requester = np.bincount(keys, minlength=s * s).reshape(s, s)
        return np.ascontiguousarray(by_requester.T)

    def owner_distinct(self, idx: np.ndarray, size: int, block: int, s: int) -> np.ndarray:
        """Distinct requested indices per owning thread of a blocked
        shared array (``collectives.getd.owner_distinct_counts`` core).
        ``idx`` is already validated to ``[0, size)``."""
        # Presence mask over the blocked layout instead of sorting the
        # (much larger) request vector with np.unique: the distinct
        # count for thread t is the number of marked slots in its
        # affinity range.
        if s * block >= size:
            # Even blocked layout: every affinity range is one row.
            with arena.lease(s * block, np.bool_, clear=True) as present:
                present[idx] = True
                return np.count_nonzero(present.reshape(s, block), axis=1)
        # Custom block size: the last thread also owns the overflow, so
        # count through prefix sums at the range ends.
        with arena.lease(size, np.int8, clear=True) as present:
            present[idx] = 1
            with arena.lease(size + 1, np.int64) as cum:
                cum[0] = 0
                np.cumsum(present, out=cum[1:])
                tids = np.arange(s, dtype=np.int64)
                starts = np.minimum(tids * block, size)
                ends = np.minimum((tids + 1) * block, size)
                ends[-1] = size
                return cum[ends] - cum[starts]

    def segment_distinct(
        self, tids: np.ndarray, vals: np.ndarray, parts: int, vmin: int, vrange: int
    ) -> np.ndarray:
        """Distinct values per segment of a partitioned array
        (``PartitionedArray.segment_distinct`` core).  Only called when
        ``parts * vrange`` fits the presence-mask slot cap; ``vals`` is
        int64 with values in ``[vmin, vmin + vrange)``."""
        # Presence mask instead of sorting: mark each (thread, value)
        # slot, then count marks per thread row.
        with arena.lease(parts * vrange, np.int8, clear=True) as present:
            key = tids * np.int64(vrange) + (vals - vmin)
            present[key] = 1
            return present.reshape(parts, vrange).sum(axis=1, dtype=np.int64)

    def concat_segments(
        self,
        a_data: np.ndarray,
        a_offsets: np.ndarray,
        b_data: np.ndarray,
        b_offsets: np.ndarray,
        offsets: np.ndarray,
    ) -> np.ndarray:
        """Interleave two partitioned payloads segment-by-segment into
        one flat array laid out by ``offsets``
        (``PartitionedArray.concat_pairwise`` core)."""
        # One concatenate over the 2s segment views, in output order: a
        # block copy per segment instead of per-element index arithmetic
        # and two fancy scatters.
        pieces = []
        a_bounds, b_bounds = a_offsets.tolist(), b_offsets.tolist()
        for i in range(len(a_bounds) - 1):
            pieces.append(a_data[a_bounds[i] : a_bounds[i + 1]])
            pieces.append(b_data[b_bounds[i] : b_bounds[i + 1]])
        return np.concatenate(pieces)
