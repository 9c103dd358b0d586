"""The NumPy baseline backend: the fast engine's hot loops, sort-free.

This is the reference implementation every other backend is compared
against (and falls back to, per-op, for anything outside its
``native_ops``).  Each op makes the fewest passes over its request
vector that plain NumPy allows: CRCW adjudication is a presence mask
plus a streaming ``np.minimum.at`` into pooled scratch (the paper's
owner-side min-reduction; no sort), the pair-count SMatrix is one fused
requester-major key pass through the pooled arena, distinct counts are
presence masks, and the per-thread interleave is one ``concatenate`` of
segment views.
"""

from __future__ import annotations

import numpy as np

from ..perf import arena
from .base import KERNEL_OPS, KernelBackend

__all__ = ["NumpyKernels", "group_minima_numpy"]


def group_minima_numpy(idx: np.ndarray, vals: np.ndarray):
    """Adjudicate duplicate targets without sorting: returns ``(targets,
    minima)`` with ``targets`` the ascending unique indices and
    ``minima`` the minimum value proposed for each — ``np.minimum.at``
    streamed into a proposal buffer over ``[0, idx.max()]`` (``idx`` is
    non-negative: callers bounds-check against their array).  Targets
    come from a presence mask, never from a sentinel, so a proposal
    equal to the dtype's maximum survives.  Module-level so the sharding
    workers can call it, on indices local to their node range, without
    instantiating a backend."""
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


class NumpyKernels(KernelBackend):
    """Pure-NumPy kernels — always available, the bit-identity reference."""

    name = "numpy"
    requires = None
    native_ops = KERNEL_OPS

    def group_minima(self, idx, vals):
        return group_minima_numpy(idx, vals)

    def exchange_matrix(self, requesters, owners, s):
        # Fused key build into pooled scratch (this runs once per
        # collective call on a vector the size of the request buffer).
        # Keys are requester-major: a partition's requesters are sorted,
        # so the hot bins of one requester are `s` adjacent counters
        # instead of a stride-`s` walk over the whole table.
        with arena.lease(owners.size, np.int64) as keys:
            np.multiply(requesters, np.int64(s), out=keys)
            keys += owners
            by_requester = np.bincount(keys, minlength=s * s).reshape(s, s)
        return np.ascontiguousarray(by_requester.T)

    def owner_distinct(self, idx, size, block, s):
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

    def segment_distinct(self, tids, vals, parts, vmin, vrange):
        # Presence mask instead of sorting: mark each (thread, value)
        # slot, then count marks per thread row.
        with arena.lease(parts * vrange, np.int8, clear=True) as present:
            key = tids * np.int64(vrange) + (vals - vmin)
            present[key] = 1
            return present.reshape(parts, vrange).sum(axis=1, dtype=np.int64)

    def concat_segments(self, a_data, a_offsets, b_data, b_offsets, offsets):
        # One concatenate over the 2s segment views, in output order: a
        # block copy per segment instead of per-element index arithmetic
        # and two fancy scatters.
        pieces = []
        a_bounds, b_bounds = a_offsets.tolist(), b_offsets.tolist()
        for i in range(len(a_bounds) - 1):
            pieces.append(a_data[a_bounds[i] : a_bounds[i + 1]])
            pieces.append(b_data[b_bounds[i] : b_bounds[i + 1]])
        return np.concatenate(pieces)
