"""UPC-style shared arrays with blocked distribution.

A UPC declaration ``shared [blk] int64_t D[n]`` distributes ``n`` elements
across the ``s`` threads in contiguous blocks of ``blk`` elements; the
default used throughout the paper (and here) is the even blocked layout
``blk = ceil(n / s)`` so thread ``i`` has affinity to
``D[i*blk : (i+1)*blk]``.

The class stores the full array as one NumPy vector (the simulation runs
in one address space) and exposes the *affinity geometry*: which thread
and node own each index, and each thread's local view.  Cost accounting
is not done here — the runtime and the collectives charge time based on
the geometry this class reports.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..errors import DistributionError
from ..perf.derived import freeze, memoized
from .cost import ELEM_BYTES
from .machine import MachineConfig

__all__ = ["SharedArray", "id_dtype", "out_of_range"]

def id_dtype(n: int) -> np.dtype:
    """Storage dtype of ids in ``[0, n)``: int32 while ``n < 2**31``
    (so ``n`` itself fits too), else int64.  Storage only: the cost
    model charges every element as one
    :data:`~repro.runtime.cost.ELEM_BYTES` word whatever this returns."""
    return np.dtype(np.int32 if n < 2**31 else np.int64)


def out_of_range(indices: np.ndarray, bound: int) -> bool:
    """True when any entry of the integer vector ``indices`` falls
    outside ``[0, bound)``.  One reduction catches both ends while
    ``bound`` fits the signed type (as it does for ids stored at
    :func:`id_dtype` of the array size): viewed as the unsigned type of
    its own width, a negative index reads as at least ``2**(bits - 1)``."""
    if not indices.size:
        return False
    unsigned = np.dtype(f"u{indices.dtype.itemsize}")
    return int(indices.view(unsigned).max()) >= bound


@memoized(maxsize=256, name="blocked_local_sizes")
def _blocked_local_sizes(size: int, block: int, s: int) -> np.ndarray:
    bounds = np.minimum(np.arange(s + 1, dtype=np.int64) * block, size)
    bounds[-1] = size  # the last thread also owns whatever is past its block
    return freeze(np.diff(bounds))


class SharedArray:
    """A blocked-distributed shared array over a simulated machine.

    ``name`` labels the array in sanitizer reports (the race detector
    auto-assigns ``shared<N>`` when the allocator did not name it).
    """

    __slots__ = ("machine", "data", "block", "name")

    def __init__(
        self,
        machine: MachineConfig,
        data: np.ndarray,
        block: int | None = None,
        name: str | None = None,
    ) -> None:
        data = np.asarray(data)
        if data.ndim != 1:
            raise DistributionError("shared arrays are one-dimensional")
        if data.shape[0] == 0:
            raise DistributionError("cannot distribute an empty array")
        s = machine.total_threads
        if block is None:
            block = -(-data.shape[0] // s)  # ceil division: UPC even blocked layout
        if block < 1:
            raise DistributionError(f"block size must be >= 1, got {block}")
        self.machine = machine
        self.data = data
        self.block = int(block)
        self.name = name

    # -- geometry -------------------------------------------------------------

    @property
    def size(self) -> int:
        return int(self.data.shape[0])

    @property
    def nbytes_per_elem(self) -> int:
        """Modeled bytes per element: the 64-bit word the paper's code
        moves, not the host storage width (``data`` may hold int32)."""
        return ELEM_BYTES

    def owner_thread(self, indices: np.ndarray) -> np.ndarray:
        """Thread with affinity to each index in ``[0, size)`` (blocked
        layout), in the dtype of ``indices``."""
        owners = np.floor_divide(indices, self.block)
        s = self.machine.total_threads
        if s * self.block >= self.size:
            return owners  # even blocked layout: no index lies past the last block
        # Custom block: indices past the last full block belong to the
        # last thread (clamped in place; a scalar has no buffer to reuse).
        out = owners if isinstance(owners, np.ndarray) else None
        return np.minimum(owners, s - 1, out=out)

    def owner_node(self, indices: np.ndarray) -> np.ndarray:
        """Node hosting each index."""
        return self.owner_thread(indices) // self.machine.threads_per_node

    def local_range(self, thread: int) -> tuple[int, int]:
        """Half-open index range with affinity to ``thread``."""
        s = self.machine.total_threads
        if not 0 <= thread < s:
            raise DistributionError(f"thread id {thread} out of range [0, {s})")
        lo = min(thread * self.block, self.size)
        hi = min((thread + 1) * self.block, self.size)
        if thread == s - 1:
            hi = self.size
        return lo, hi

    def local_view(self, thread: int) -> np.ndarray:
        """Writable view of the portion local to ``thread``."""
        lo, hi = self.local_range(thread)
        return self.data[lo:hi]

    def local_sizes(self) -> np.ndarray:
        """Number of elements with affinity to each thread (read-only:
        a pure function of the geometry, memoized by it)."""
        return _blocked_local_sizes(self.size, self.block, self.machine.total_threads)

    def node_working_set_bytes(self) -> float:
        """Bytes of this array resident on one node (the working set a
        node-local random access walks over)."""
        return self.size / self.machine.nodes * self.nbytes_per_elem

    # -- raw access (uncharged; callers account for cost) ----------------------

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Raw ``data[indices]``; bounds-checked."""
        idx = np.asarray(indices)
        if out_of_range(idx, self.size):
            raise DistributionError("shared array index out of range")
        return self.data.take(idx)

    def scatter_min(self, indices: np.ndarray, values: np.ndarray) -> int:
        """Priority (minimum) concurrent write: ``data[i] = min(data[i],
        v)`` for each pair, resolving duplicate targets deterministically.

        Returns the number of locations actually changed.
        """
        idx = np.asarray(indices)
        vals = np.asarray(values)
        if idx.shape != vals.shape:
            raise DistributionError("indices/values shape mismatch")
        if idx.size == 0:
            return 0
        if out_of_range(idx, self.size):
            raise DistributionError("shared array index out of range")
        targets, minima = kernels.active_backend().group_minima(idx, vals)
        before = self.data[targets]
        new = np.minimum(before, minima)
        changed = int(np.count_nonzero(new != before))
        self.data[targets] = new
        return changed

    def scatter_store_min(self, indices: np.ndarray, values: np.ndarray) -> int:
        """Unconditional store with deterministic adjudication: each
        targeted location receives the *minimum of the values proposed
        for it*, regardless of its current content.

        This differs from :meth:`scatter_min` (which never increases a
        value) and models an arbitrary-CRCW plain store; it is what the
        Shiloach-Vishkin stagnant-star hook needs, since that hook may
        legitimately raise a star root's label.  Returns the number of
        changed locations.
        """
        idx = np.asarray(indices)
        vals = np.asarray(values)
        if idx.shape != vals.shape:
            raise DistributionError("indices/values shape mismatch")
        if idx.size == 0:
            return 0
        if out_of_range(idx, self.size):
            raise DistributionError("shared array index out of range")
        targets, minima = kernels.active_backend().group_minima(
            idx, vals.astype(np.int64, copy=False)
        )
        # A location whose only proposals equal the int64 maximum is
        # left untouched (the sentinel-buffer semantics this op is
        # pinned to by tests/test_data_plane.py).
        keep = minima != np.iinfo(np.int64).max
        targets, minima = targets[keep], minima[keep]
        changed = int(np.count_nonzero(self.data[targets] != minima))
        self.data[targets] = minima.astype(self.data.dtype)
        return changed

    def scatter(self, indices: np.ndarray, values: np.ndarray) -> int:
        """Arbitrary concurrent write resolved deterministically: when
        several values target one location, the minimum wins (a legal
        arbitrary-CRCW outcome, and the one that keeps results identical
        across thread counts).  Returns the number of changed locations.
        """
        return self.scatter_min(indices, values)

    def snapshot(self) -> np.ndarray:
        return self.data.copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedArray(n={self.size}, block={self.block}, dtype={self.data.dtype},"
            f" s={self.machine.total_threads})"
        )
