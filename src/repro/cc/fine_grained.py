"""Fine-grained CC engine: the naive UPC translation and the SMP baseline.

Both run the *same* graft-and-shortcut algorithm (Fig. 1); they differ
only in what an irregular access costs:

* ``style='upc'`` — the literal UPC translation on a cluster: every
  shared-array dereference with remote affinity is a blocking small
  message (node-serialized), and local ones pay the UPC runtime's
  shared-pointer overhead.  This is the paper's CC-UPC of Fig. 2 —
  "3 orders of magnitude slower than CC-SMP" normalized per processor.
* ``style='smp'`` — the same source compiled for one SMP node (CC-SMP):
  irregular accesses are plain cache-modeled memory accesses.

The shortcut loop is asynchronous in both (the per-vertex ``while`` of
Fig. 1): no barriers are charged between rounds, and from the second
round on only vertices that moved keep walking.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.results import CCResult, SolveInfo
from ..errors import ConfigError
from ..graph.distribute import distribute_edges
from ..graph.edgelist import EdgeList
from ..runtime.machine import MachineConfig
from ..runtime.partitioned import PartitionedArray
from ..runtime.runtime import PGASRuntime
from ..runtime.trace import Category
from .common import check_converged, graft_proposals

__all__ = ["solve_cc_fine_grained"]

_STYLES = ("upc", "smp")


class _Access:
    """Access-cost adapter: UPC fine-grained vs SMP cache-modeled."""

    def __init__(self, rt: PGASRuntime, d, style: str) -> None:
        self.rt = rt
        self.d = d
        self.style = style
        self.ws_bytes = d.size * d.nbytes_per_elem / rt.machine.nodes

    def _charge_smp(self, indices: PartitionedArray) -> None:
        """Plain cache-modeled irregular access, cold-miss bounded: the
        SMP code's repeated reads of a few component roots hit cache on
        real hardware, and the model must give it the same courtesy it
        gives the collectives."""
        sizes = indices.sizes().astype(np.float64)
        distinct = indices.segment_distinct().astype(np.float64)
        ws = self.rt.cost.distinct_working_set(distinct, self.ws_bytes)
        self.rt.charge(
            Category.IRREGULAR, self.rt.cost.gather_time(sizes, distinct, ws)
        )
        self.rt.counters.add(local_random_accesses=int(sizes.sum()))

    def read(self, indices: PartitionedArray) -> np.ndarray:
        if self.style == "upc":
            return self.rt.fine_grained_read(self.d, indices)
        self._charge_smp(indices)
        return self.d.gather(indices.data)

    def write_min(self, indices: PartitionedArray, values: np.ndarray) -> int:
        if self.style == "upc":
            return self.rt.fine_grained_write(self.d, indices, values, combine="min")
        self._charge_smp(indices)
        return self.d.scatter_min(indices.data, values)


def _vertex_partition_offsets(d) -> np.ndarray:
    sizes = d.local_sizes()
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def solve_cc_fine_grained(
    graph: EdgeList, machine: MachineConfig, style: str, faults=None
) -> CCResult:
    """Run graft-and-shortcut CC with per-element access costs.

    Returns labels identical to every other implementation in this
    package (same snapshot semantics, same min adjudication).

    ``faults`` accepts a :class:`~repro.faults.FaultPlan`; loss and
    stragglers apply to every fine-grained access.  Crash events never
    fire here — the asynchronous loops have no synchronization points —
    which is itself part of the model (see docs/fault-model.md).
    """
    if style not in _STYLES:
        raise ConfigError(f"style must be one of {_STYLES}, got {style!r}")
    wall_start = time.perf_counter()
    rt = PGASRuntime(machine, faults=faults)
    n = graph.n
    ep = distribute_edges(graph, rt.s)
    d = rt.shared_array(np.arange(n, dtype=np.int64)) if n else None
    if n == 0:
        info = SolveInfo(machine, f"cc-{style}", 0.0, time.perf_counter() - wall_start, 0, rt.trace)
        return CCResult(np.empty(0, dtype=np.int64), info)
    access = _Access(rt, d, style)
    vert_offsets = _vertex_partition_offsets(d)

    iteration = 0
    while True:
        iteration += 1
        check_converged(iteration, n, f"cc-{style} grafting")
        rt.counters.add(iterations=1)

        # Grafting from the iteration snapshot.
        du = access.read(ep.u)
        dv = access.read(ep.v)
        ddu = access.read(ep.u.with_data(du))
        ddv = access.read(ep.v.with_data(dv))
        rt.local_ops(6.0 * ep.sizes().astype(np.float64))
        step = graft_proposals(du, dv, ddu, ddv)
        targets = ep.u.take_sorted(step.sel).with_data(step.targets)
        changed = access.write_min(targets, step.values)

        # Asynchronous shortcut: every vertex walks until its parent is a
        # root.  Round 1 touches all vertices; later rounds only movers.
        active = np.ones(n, dtype=bool)
        guard = 0
        while True:
            guard += 1
            check_converged(guard, n, f"cc-{style} shortcut")
            counts = PartitionedArray(active.astype(np.int64), vert_offsets).segment_sums()
            # Read own label (contiguous) and the grandparent (irregular).
            grand_idx = PartitionedArray(rt.owner_block_read(d, counts=counts), vert_offsets)
            # Only active vertices issue the irregular grandparent read;
            # charge as if the inactive ones were skipped.
            sub = grand_idx.filter(active)
            if style == "upc":
                # Approximate the fine-grained charge on the active subset.
                grand_sub = rt.fine_grained_read(d, sub)
                grand = d.data.copy()
                grand[active] = grand_sub
            else:
                access._charge_smp(sub)
                grand = d.gather(d.data)
            moved = grand != d.data
            if not moved.any():
                break
            rt.owner_masked_write(
                d,
                moved,
                grand[moved],
                counts=PartitionedArray(moved.astype(np.int64), vert_offsets).segment_sums(),
            )
            active = moved
        if changed == 0:
            break

    labels = d.data.copy()
    info = SolveInfo(
        machine,
        f"cc-{style}",
        rt.elapsed,
        time.perf_counter() - wall_start,
        iteration,
        rt.trace,
    )
    return CCResult(labels, info)
