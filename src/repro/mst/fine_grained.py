"""Fine-grained MST: the lock-based SMP baseline and the naive UPC port.

MST-SMP (Bader-Cong) guards each supervertex's minimum-edge record with a
fine-grained lock: "Fine-grained locks are used to guard against race
conditions among these processors when they attempt to update the
minimum-weight edge".  On 100M-vertex inputs the paper finds the SMP
implementation "either slower or only slightly faster than the
sequential Kruskal implementation ... largely due to the locking
overhead with using 100M locks" — this module charges exactly those
costs: per-vertex lock initialization, an acquire/release pair per
candidate update, and a contention surcharge proportional to how many
candidates collide on one supervertex.

``style='upc'`` is the literal cluster port, where a lock acquisition is
*two more* blocking remote messages and the record update three
fine-grained remote accesses.  The paper: "The UPC implementation of MST
performs poorly on our target platform.  We had to abort most of the
runs after hours passed without termination." — the modeled times are
correspondingly enormous (the benchmarks print them; nothing hangs,
because execution and time are decoupled in the simulation).
"""

from __future__ import annotations

import time

import numpy as np

from ..cc.common import check_converged
from ..core.results import MSTResult, SolveInfo
from ..errors import ConfigError, GraphError
from ..graph.distribute import distribute_edges
from ..graph.edgelist import EdgeList
from ..runtime.machine import MachineConfig
from ..runtime.partitioned import PartitionedArray
from ..runtime.runtime import PGASRuntime
from ..runtime.shared_array import id_dtype
from ..runtime.trace import Category
from .common import NO_EDGE, break_hook_cycles, extract_winners, pack_candidates

__all__ = ["solve_mst_fine_grained"]

_STYLES = ("upc", "smp")


def _contention(targets: np.ndarray) -> float:
    """Expected fraction of candidate updates hitting a contended lock."""
    if targets.size == 0:
        return 0.0
    return 1.0 - np.unique(targets).size / targets.size


def solve_mst_fine_grained(
    graph: EdgeList, machine: MachineConfig, style: str, faults=None
) -> MSTResult:
    """Lock-based Borůvka with per-element access costs.

    ``faults`` accepts a :class:`~repro.faults.FaultPlan`; loss and
    stragglers apply to every fine-grained access.  Crash events never
    fire here — the asynchronous loops have no synchronization points —
    which is itself part of the model (see docs/fault-model.md).
    """
    if style not in _STYLES:
        raise ConfigError(f"style must be one of {_STYLES}, got {style!r}")
    if graph.w is None:
        raise GraphError("MST needs a weighted graph; use with_random_weights()")
    wall_start = time.perf_counter()
    rt = PGASRuntime(machine, faults=faults)
    n = graph.n
    if n == 0 or graph.m == 0:
        info = SolveInfo(machine, f"mst-{style}", rt.elapsed, time.perf_counter() - wall_start, 0, rt.trace)
        return MSTResult(np.empty(0, dtype=np.int64), 0, np.arange(n, dtype=np.int64), info)

    ep = distribute_edges(graph, rt.s)
    d = rt.shared_array(np.arange(n, dtype=id_dtype(n)))
    minedge = rt.shared_array(np.full(n, NO_EDGE, dtype=np.int64))
    sizes_local = d.local_sizes().astype(np.float64)
    vert_offsets = np.zeros(rt.s + 1, dtype=np.int64)
    np.cumsum(d.local_sizes(), out=vert_offsets[1:])
    ws_bytes = n * 8 / machine.nodes

    # One lock per vertex, initialized up front (the "100M locks" cost).
    rt.charge(Category.WORK, rt.cost.lock_init_time(sizes_local))
    rt.counters.add(lock_inits=n)

    def charge_smp_access(indices: PartitionedArray, target_ws: float) -> None:
        sizes = indices.sizes().astype(np.float64)
        distinct = indices.segment_distinct().astype(np.float64)
        ws = rt.cost.distinct_working_set(distinct, target_ws)
        rt.charge(Category.IRREGULAR, rt.cost.gather_time(sizes, distinct, ws))
        rt.counters.add(local_random_accesses=int(sizes.sum()))

    def read(indices: PartitionedArray) -> np.ndarray:
        if style == "upc":
            return rt.fine_grained_read(d, indices)
        charge_smp_access(indices, ws_bytes)
        return d.gather(indices.data)

    chosen: list[np.ndarray] = []
    iteration = 0
    while True:
        iteration += 1
        check_converged(iteration, n, f"mst-{style}")
        rt.counters.add(iterations=1)

        du = read(ep.u)
        dv = read(ep.v)
        cross = du != dv
        rt.local_ops(2.0 * ep.sizes().astype(np.float64))
        if not cross.any():
            break

        live = ep.u.filter(cross)
        du_c, dv_c = du[cross], dv[cross]
        w_c = ep.w.data[cross]
        id_c = ep.edge_ids().data[cross]
        positions = np.arange(live.total, dtype=np.int64)
        keys = pack_candidates(w_c, positions)

        rt.owner_block_write(minedge, NO_EDGE, counts=sizes_local)

        # Locked candidate updates: each live edge bids for both
        # endpoints' records.
        targets = PartitionedArray.concat_pairwise(
            live.with_data(du_c), live.with_data(dv_c)
        )
        bids = PartitionedArray.concat_pairwise(
            live.with_data(keys), live.with_data(keys)
        )
        contention = _contention(targets.data)
        nbids = targets.sizes().astype(np.float64)
        rt.charge(Category.WORK, rt.cost.lock_op_time(nbids, contention))
        rt.counters.add(lock_ops=int(targets.total))
        # Lock convoy: every bid for one supervertex serializes through
        # that vertex's lock.  Late iterations funnel almost all bids to
        # the few surviving components' records, and the barriered
        # iteration structure makes every thread wait for the hottest
        # queue — the heart of the paper's "locking overhead" finding.
        if targets.total:
            hot = int(np.bincount(targets.data).max())
            critical = rt.machine.locks.acquire_time + 2.0 * rt.machine.memory.latency
            rt.charge(Category.WORK, float(hot) * critical)
        if style == "upc":
            # Lock acquire + release are remote round-trips; the record
            # read-modify-write is three more fine-grained accesses.
            local, remote = rt.split_local_remote(minedge, targets)
            rt.charge_fine_grained(5 * remote, 8)
            rt.charge(Category.IRREGULAR, rt.cost.upc_local_deref_time(3 * local, ws_bytes))
        else:
            # Read-modify-write of a *contended shared* record: unlike
            # duplicated reads, duplicated writes are anti-cached — every
            # update invalidates the other CPUs' copies, so each bid pays
            # a coherence transfer, not a cache hit.
            coherence = 2.0 * rt.machine.memory.latency
            rt.charge(Category.IRREGULAR, nbids * coherence)
            rt.counters.add(local_random_accesses=int(targets.total))
        np.minimum.at(minedge.data, targets.data, bids.data)

        # Winners, hooks, cycle break (owner-local scans + one irregular
        # grandparent read per winner).
        rt.local_stream(sizes_local, Category.COPY)
        roots, pos = extract_winners(minedge.data)
        chosen.append(np.unique(id_c[pos]))
        ra, rb = du_c[pos], dv_c[pos]
        partners = np.where(ra == roots, rb, ra)  # the other endpoint's label
        rt.owner_indexed_write(d, roots, partners, category=Category.COPY)
        owners_sorted = d.owner_thread(roots)
        offsets = np.searchsorted(owners_sorted, np.arange(rt.s + 1, dtype=np.int64))
        read(PartitionedArray(partners, offsets))
        break_hook_cycles(d.data, roots)
        rt.local_ops(float(roots.size))

        # Asynchronous pointer jumping to stars.
        active = np.ones(n, dtype=bool)
        guard = 0
        while True:
            guard += 1
            check_converged(guard, n, f"mst-{style} shortcut")
            counts = PartitionedArray(active.astype(np.int64), vert_offsets).segment_sums()
            sub = PartitionedArray(rt.owner_block_read(d, counts=counts), vert_offsets).filter(active)
            if style == "upc":
                grand_sub = rt.fine_grained_read(d, sub)
                grand = d.data.copy()
                grand[active] = grand_sub
            else:
                charge_smp_access(sub, ws_bytes)
                grand = d.gather(d.data)
            moved = grand != d.data
            if not moved.any():
                break
            # The async write-back is deliberately uncharged in the
            # lock-based baseline: it rides the movers' read pass above.
            # repro: waive[CM01] uncharged async write-back (modeled with the read)
            d.data[moved] = grand[moved]
            active = moved

    edge_ids = (
        np.sort(np.concatenate(chosen)).astype(np.int64)
        if chosen else np.empty(0, dtype=np.int64)
    )
    total = int(graph.w[edge_ids].sum()) if edge_ids.size else 0
    info = SolveInfo(
        machine, f"mst-{style}", rt.elapsed, time.perf_counter() - wall_start, iteration, rt.trace
    )
    return MSTResult(edge_ids, total, d.data.astype(np.int64), info)
