"""Distribution of edge lists across simulated threads.

The paper partitions work "by dividing the edges evenly instead of the
vertices", which is what keeps hub vertices from unbalancing the hybrid
graphs.  :class:`EdgePartition` is the SPMD view of an edge list: the
``u``/``v``/``w`` arrays share one offsets vector, so thread ``i``'s
private edge slice is ``(u.segment(i), v.segment(i), w.segment(i))``.
The partitions are read-only views of the edge list's own arrays, so a
solve never copies its input and cannot write through to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DistributionError
from ..runtime.partitioned import PartitionedArray, even_offsets
from ..runtime.shared_array import id_dtype
from .edgelist import EdgeList

__all__ = ["EdgePartition", "distribute_edges"]


@dataclass
class EdgePartition:
    """An edge list split evenly into per-thread contiguous slices."""

    n: int
    u: PartitionedArray
    v: PartitionedArray
    w: PartitionedArray | None = None

    def __post_init__(self) -> None:
        if not np.array_equal(self.u.offsets, self.v.offsets):
            raise DistributionError("u and v partitions must share offsets")
        if self.w is not None and not np.array_equal(self.w.offsets, self.u.offsets):
            raise DistributionError("w partition must share offsets with u/v")

    @property
    def parts(self) -> int:
        return self.u.parts

    @property
    def m(self) -> int:
        return self.u.total

    @property
    def offsets(self) -> np.ndarray:
        return self.u.offsets

    @property
    def weighted(self) -> bool:
        return self.w is not None

    def sizes(self) -> np.ndarray:
        return self.u.sizes()

    def filter(self, mask: np.ndarray) -> "EdgePartition":
        """Per-thread compaction keeping edges where ``mask`` is True
        (the ``compact`` optimization's data movement)."""
        u = self.u.filter(mask)
        v = self.v.filter(mask)
        w = self.w.filter(mask) if self.w is not None else None
        return EdgePartition(self.n, u, v, w)

    def edge_ids(self) -> PartitionedArray:
        """Global edge indices, partitioned identically (used by MST to
        report which input edges are in the forest), stored at the id
        width of ``m``."""
        return self.u.with_data(np.arange(self.m, dtype=id_dtype(self.m)))

    def to_edgelist(self) -> EdgeList:
        w = self.w.data if self.w is not None else None
        return EdgeList(self.n, self.u.data.copy(), self.v.data.copy(), None if w is None else w.copy())


def distribute_edges(graph: EdgeList, threads: int) -> EdgePartition:
    """Split ``graph``'s edges into ``threads`` even contiguous slices."""
    if threads < 1:
        raise DistributionError(f"need at least one thread, got {threads}")
    offsets = even_offsets(graph.m, threads)
    # One validated layout, shared: siblings reuse its thread ids and sizes.
    u = PartitionedArray(_read_only(graph.u), offsets)
    v = u.with_data(_read_only(graph.v))
    w = u.with_data(_read_only(graph.w)) if graph.w is not None else None
    return EdgePartition(graph.n, u, v, w)


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A view of ``arr`` that raises on write; ``arr`` stays writeable."""
    view = arr.view()
    view.setflags(write=False)
    return view
