"""Pooled scratch buffers for the simulator's hot loops.

The collectives and the integrity monitor burn a surprising share of
their wall time in the NumPy allocator: every round re-creates the same
presence masks, cumulative-sum scratch, and key buffers, page-faults
them in, and throws them away.  :class:`BufferArena` keeps those arrays
alive across rounds, keyed by ``(dtype, size-class)`` — the size class
is the next power of two, so a request for 80 001 elements reuses the
buffer leased for 70 000 a round earlier.

Strictly wall-clock machinery: leased buffers never hold modeled state,
never feed the cost model, and every user overwrites the slice it takes
(or asks for ``clear=True``), so modeled times and results do not
depend on what the pool holds.
"""

from __future__ import annotations

import contextlib
from typing import Dict, List

import numpy as np

__all__ = ["BufferArena", "global_arena", "lease", "lease_intp"]

#: Buffers above this many bytes are not pooled — they would pin large
#: allocations for the life of the process (the service runs for
#: hours); the allocator handles rare huge requests fine.
_MAX_POOLED_BYTES = 1 << 26  # 64 MiB
#: Retained buffers per (dtype, size-class) bucket.  The collectives
#: lease at most a handful of scratch arrays at once.
_MAX_PER_BUCKET = 4


def _size_class(n: int) -> int:
    """Smallest power of two >= n (and >= 64, to merge tiny buckets)."""
    return 1 << max(6, int(n - 1).bit_length()) if n > 1 else 64


class BufferArena:
    """A pool of reusable 1-D scratch arrays keyed by (dtype, size-class)."""

    def __init__(self) -> None:
        self._pools: Dict[tuple, List[np.ndarray]] = {}
        self.leases = 0
        self.reuses = 0

    def take(self, n: int, dtype, clear: bool = False) -> np.ndarray:
        """A scratch array of exactly ``n`` elements (a view into a
        pooled size-class buffer).  Contents are arbitrary unless
        ``clear=True`` zeroes the slice.  Pair with :meth:`give` (or use
        :meth:`lease`)."""
        n = int(n)
        dt = np.dtype(dtype)
        self.leases += 1
        if n * dt.itemsize > _MAX_POOLED_BYTES:
            return np.zeros(n, dtype=dt) if clear else np.empty(n, dtype=dt)
        size = _size_class(n)
        pool = self._pools.get((dt.str, size))
        if pool:
            base = pool.pop()
            self.reuses += 1
        else:
            base = np.empty(size, dtype=dt)
        view = base[:n]
        if clear:
            view.fill(0)
        return view

    def give(self, buf: np.ndarray) -> None:
        """Return a buffer obtained from :meth:`take` to the pool."""
        base = buf.base if buf.base is not None else buf
        if not isinstance(base, np.ndarray) or base.ndim != 1:
            return
        size = base.shape[0]
        if size != _size_class(size) or base.nbytes > _MAX_POOLED_BYTES:
            return  # not one of ours: an oversize lease take() allocated fresh
        pool = self._pools.setdefault((base.dtype.str, size), [])
        if len(pool) < _MAX_PER_BUCKET:
            pool.append(base)

    @contextlib.contextmanager
    def lease(self, n: int, dtype, clear: bool = False):
        buf = self.take(n, dtype, clear=clear)
        try:
            yield buf
        finally:
            self.give(buf)

    def clear(self) -> None:
        self._pools.clear()

    def stats(self) -> dict:
        pooled = sum(len(v) for v in self._pools.values())
        return {
            "leases": self.leases,
            "reuses": self.reuses,
            "buckets": len(self._pools),
            "pooled_buffers": pooled,
        }


_GLOBAL = BufferArena()


def global_arena() -> BufferArena:
    """The process-wide arena the runtime's helpers share."""
    return _GLOBAL


def lease(n: int, dtype, clear: bool = False):
    """Shorthand for ``global_arena().lease(...)``."""
    return _GLOBAL.lease(n, dtype, clear=clear)


@contextlib.contextmanager
def lease_intp(idx: np.ndarray):
    """``idx`` as an ``intp`` index vector: itself when it already is
    one, else widened into pooled scratch.  A fancy-index store converts
    any narrower index to ``intp`` in a fresh allocation on every call,
    which costs more than the scatter saves from reading int32."""
    if idx.dtype == np.intp:
        yield idx
        return
    with _GLOBAL.lease(idx.size, np.intp) as wide:
        np.copyto(wide, idx)
        yield wide
