"""Per-thread partitioned data for the simulated SPMD execution.

In a real UPC program every thread holds private arrays (its slice of the
edge list, its request buffers).  The simulation represents the union of
one private array across all ``s`` threads as a single flat NumPy array
plus an ``offsets`` vector of length ``s + 1``: thread ``i`` owns
``data[offsets[i]:offsets[i+1]]``.  Keeping the segments contiguous in
one array is what lets a "loop over all threads" be a single vectorized
NumPy operation.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .. import kernels
from ..errors import DistributionError
from ..perf.derived import freeze, memoized

__all__ = ["PartitionedArray", "even_offsets"]

#: Presence-mask slot cap for the vectorized distinct counts; sparser
#: payloads fall back to the ``np.unique`` path.
_DISTINCT_SLOT_CAP = 1 << 26


@memoized(maxsize=512, name="even_offsets")
def _even_offsets(total: int, parts: int) -> np.ndarray:
    base, extra = divmod(total, parts)
    sizes = np.full(parts, base, dtype=np.int64)
    sizes[:extra] += 1
    offsets = np.zeros(parts + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return freeze(offsets)


def even_offsets(total: int, parts: int) -> np.ndarray:
    """Offsets that split ``total`` items into ``parts`` near-even
    contiguous segments (the paper partitions edge lists "by dividing the
    edges evenly instead of the vertices")."""
    if parts < 1:
        raise DistributionError(f"need at least one part, got {parts}")
    if total < 0:
        raise DistributionError(f"negative total {total}")
    return _even_offsets(int(total), int(parts))


class _Layout:
    """Vectors derived from one validated ``offsets`` object.  Computed
    at most once, read-only, and shared by reference between every
    :class:`PartitionedArray` built on that object (``with_data`` and
    friends), so a round that wraps ten payloads in one partitioning
    pays for one ``thread_ids`` vector, not ten."""

    __slots__ = ("sizes", "tids", "base")

    def __init__(self, sizes: np.ndarray | None = None) -> None:
        self.sizes = sizes
        self.tids = None
        self.base = None


class PartitionedArray:
    """A flat array split into ``s`` contiguous per-thread segments."""

    __slots__ = ("data", "offsets", "_layout")

    def __init__(self, data: np.ndarray, offsets: np.ndarray) -> None:
        data = np.asarray(data)
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.ndim != 1 or offsets.size < 2:
            raise DistributionError("offsets must be a 1-D array of length >= 2")
        if offsets[0] != 0 or offsets[-1] != data.shape[0]:
            raise DistributionError(
                f"offsets must start at 0 and end at len(data)={data.shape[0]}, got "
                f"[{offsets[0]}, ..., {offsets[-1]}]"
            )
        sizes = np.diff(offsets)
        if np.any(sizes < 0):
            raise DistributionError("offsets must be non-decreasing")
        self.data = data
        self.offsets = offsets
        self._layout = _Layout(freeze(sizes))

    @classmethod
    def _trusted(
        cls, data: np.ndarray, offsets: np.ndarray, layout: _Layout
    ) -> "PartitionedArray":
        """An instance on offsets that are valid for ``data`` by
        construction, so nothing is re-validated or re-derived."""
        new = object.__new__(cls)
        new.data = data
        new.offsets = offsets
        new._layout = layout
        return new

    # -- constructors ---------------------------------------------------------

    @classmethod
    def even(cls, data: np.ndarray, parts: int) -> "PartitionedArray":
        """Split ``data`` evenly into ``parts`` segments."""
        data = np.asarray(data)
        return cls(data, even_offsets(data.shape[0], parts))

    @classmethod
    def from_segments(cls, segments: Sequence[np.ndarray]) -> "PartitionedArray":
        if not segments:
            raise DistributionError("need at least one segment")
        sizes = np.array([np.asarray(seg).shape[0] for seg in segments], dtype=np.int64)
        offsets = np.zeros(len(segments) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        data = np.concatenate([np.asarray(seg) for seg in segments]) if offsets[-1] else (
            np.asarray(segments[0])[:0]
        )
        return cls(data, offsets)

    @classmethod
    def empty_like(cls, parts: int, dtype=np.int64) -> "PartitionedArray":
        return cls(np.empty(0, dtype=dtype), np.zeros(parts + 1, dtype=np.int64))

    @classmethod
    def concat_pairwise(cls, a: "PartitionedArray", b: "PartitionedArray") -> "PartitionedArray":
        """Per-thread concatenation: thread ``i``'s new segment is
        ``a.segment(i)`` followed by ``b.segment(i)``."""
        if a.parts != b.parts:
            raise DistributionError("cannot concat partitions with different part counts")
        # One output buffer filled once, instead of a concatenation per
        # segment plus one over the results.
        offsets = np.zeros(a.parts + 1, dtype=np.int64)
        np.cumsum(a.sizes() + b.sizes(), out=offsets[1:])
        out = kernels.active_backend().concat_segments(
            a.data, a.offsets, b.data, b.offsets, offsets
        )
        return cls(out, offsets)

    # -- basic accessors --------------------------------------------------------

    @property
    def parts(self) -> int:
        return self.offsets.size - 1

    @property
    def total(self) -> int:
        return int(self.offsets[-1])

    def sizes(self) -> np.ndarray:
        """Per-thread segment lengths (read-only; shared with every
        instance on the same offsets object)."""
        layout = self._layout
        if layout.sizes is None:
            layout.sizes = freeze(np.diff(self.offsets))
        return layout.sizes

    def segment(self, i: int) -> np.ndarray:
        """View of thread ``i``'s segment."""
        if not 0 <= i < self.parts:
            raise DistributionError(f"segment index {i} out of range [0, {self.parts})")
        return self.data[self.offsets[i] : self.offsets[i + 1]]

    def segments(self) -> Iterator[np.ndarray]:
        for i in range(self.parts):
            yield self.segment(i)

    def thread_ids(self) -> np.ndarray:
        """For every flat position, the owning thread id.

        The partitioning is immutable, so this is computed once per
        offsets object and the cached (read-only) vector is returned to
        every instance that shares it.
        """
        layout = self._layout
        if layout.tids is None:
            layout.tids = freeze(np.repeat(np.arange(self.parts, dtype=np.int64), self.sizes()))
        return layout.tids

    def requester_base(self) -> np.ndarray:
        """For every flat position, ``parts`` times its owning thread id:
        the requester-major row offset of the SMatrix key
        (``NumpyKernels.exchange_matrix``).  Cached per offsets object
        like :meth:`thread_ids`, and built without it."""
        layout = self._layout
        if layout.base is None:
            rows = np.arange(self.parts, dtype=np.int64) * self.parts
            layout.base = freeze(np.repeat(rows, self.sizes()))
        return layout.base

    # -- transformations ---------------------------------------------------------

    def with_data(self, data: np.ndarray) -> "PartitionedArray":
        """Same partitioning, new payload (must have identical length)."""
        data = np.asarray(data)
        if data.shape[0] != self.total:
            raise DistributionError(
                f"payload length {data.shape[0]} != partition total {self.total}"
            )
        return self._trusted(data, self.offsets, self._layout)

    def take_sorted(self, sel: np.ndarray) -> "PartitionedArray":
        """Keep the flat positions listed in ``sel``, which must be
        strictly ascending (``np.flatnonzero`` of a mask): the selection
        behind :meth:`filter`, for callers that compact several payloads
        with one mask and derive ``sel`` once.  Siblings of the result
        are ``result.with_data(payload.take(sel))``."""
        if sel.size == self.total:
            return self  # strictly ascending and complete: the identity
        # sel is ascending, so the kept count before each old boundary
        # is a binary search, and the offsets are valid for the taken
        # data by construction.
        offsets = np.searchsorted(sel, self.offsets)
        return self._trusted(self.data.take(sel), offsets, _Layout())

    def filter(self, mask: np.ndarray) -> "PartitionedArray":
        """Keep only positions where ``mask`` is True, compacting each
        thread's segment in place (the paper's ``compact`` optimization:
        edges internal to a component are dropped from further rounds)."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != self.total:
            raise DistributionError("mask length mismatch")
        return self.take_sorted(np.flatnonzero(mask))

    def segment_sums(self, values: np.ndarray | None = None) -> np.ndarray:
        """Per-thread sum of ``values`` (or of the payload itself)."""
        vals = self.data if values is None else np.asarray(values)
        if vals.shape[0] != self.total:
            raise DistributionError("values length mismatch")
        return np.bincount(self.thread_ids(), weights=vals.astype(np.float64), minlength=self.parts)

    def segment_distinct(self) -> np.ndarray:
        """Number of distinct values in each segment (vectorized).

        Used by the cost model's cold-miss bound: a request vector's
        cache footprint is governed by its *distinct* targets, not its
        length.  Requires a non-negative integer payload.
        """
        if self.total == 0:
            return np.zeros(self.parts, dtype=np.int64)
        vals = self.data.astype(np.int64, copy=False)
        vmin = int(vals.min())
        vrange = int(vals.max()) - vmin + 1
        slots = self.parts * vrange
        if slots <= _DISTINCT_SLOT_CAP:
            # Presence-mask counting: mark each (thread, value) slot,
            # then count marks per thread row.
            return kernels.active_backend().segment_distinct(
                self.thread_ids(), vals, self.parts, vmin, vrange
            )
        key = self.thread_ids() * np.int64(vrange) + (vals - vmin)
        uniq = np.unique(key)
        return np.bincount(uniq // vrange, minlength=self.parts)

    def segment_counts_where(self, mask: np.ndarray) -> np.ndarray:
        """Per-thread count of True entries in ``mask``."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != self.total:
            raise DistributionError("mask length mismatch")
        # flatnonzero is ascending, so the count below each boundary is a
        # binary search (no thread-id gather, no bincount).
        return np.diff(np.searchsorted(np.flatnonzero(mask), self.offsets))

    def __len__(self) -> int:
        return self.total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PartitionedArray(parts={self.parts}, total={self.total}, dtype={self.data.dtype})"
