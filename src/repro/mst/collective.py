"""MST via collectives: Borůvka with GetD/SetD/SetDMin (paper Section IV-A).

"To rewrite MST for efficient execution, we propose a new collective
SetDMin that obviates the need of locking. ... In the new implementation
all threads first collectively retrieve the D values for all vertices
appearing in their local edge lists.  For each edge e = (u, v), when u
and v belong to different components, all threads collectively assign"
the minimum-weight candidate to both endpoint supervertices.

Per iteration:

1. ``GetD`` the supervertex labels of every live edge's endpoints;
2. (``compact``) drop intra-component edges permanently;
3. ``SetDMin`` packed ``(weight, position)`` candidates into the
   per-supervertex minimum array — priority concurrent write, no locks;
4. owners scan their block for winners, emit forest edges, and hook each
   winning supervertex onto its partner (2-cycles broken toward the
   smaller label);
5. lock-step pointer jumping collapses the merged supervertices.
"""

from __future__ import annotations

import time

import numpy as np

from ..cc.collective import pointer_jump_to_stars
from ..cc.common import check_converged
from ..collectives.base import CollectiveContext
from ..collectives.getd import getd
from ..collectives.setd import setdmin
from ..core.optimizations import OptimizationFlags
from ..core.results import MSTResult, SolveInfo
from ..errors import FaultError, GraphError, IntegrityError, NodeLoss, ThreadCrash
from ..faults.checkpoint import RoundCheckpointer
from ..graph.distribute import distribute_edges
from ..graph.edgelist import EdgeList
from ..runtime.machine import MachineConfig, hps_cluster
from ..runtime.partitioned import PartitionedArray
from ..runtime.runtime import PGASRuntime
from ..runtime.shared_array import SharedArray
from ..runtime.trace import Category
from .common import NO_EDGE, break_hook_cycles, extract_winners, pack_candidates

__all__ = ["solve_mst_collective", "partition_by_owner"]


def partition_by_owner(indices: np.ndarray, shared: SharedArray) -> PartitionedArray:
    """Partition a *sorted* index array by owning thread (blocked layout
    keeps owners monotone, so the split is a searchsorted)."""
    owners = shared.owner_thread(indices)
    s = shared.machine.total_threads
    offsets = np.searchsorted(owners, np.arange(s + 1, dtype=np.int64))
    return PartitionedArray(np.asarray(indices, dtype=np.int64), offsets)


def solve_mst_collective(
    graph: EdgeList,
    machine: MachineConfig | None = None,
    opts: OptimizationFlags = OptimizationFlags.all(),
    tprime: int = 1,
    sort_method: str = "count",
    faults=None,
    adapter=None,
    integrity=None,
    resilience=None,
) -> MSTResult:
    """Minimum spanning forest via the lock-free collective Borůvka.

    ``faults`` accepts a :class:`~repro.faults.FaultPlan`.  When the plan
    schedules crashes, each Borůvka round checkpoints the supervertex
    labels, the live edge partitions, and the forest size; an injected
    crash restores the last checkpoint and replays only the lost round.

    ``integrity`` accepts an :class:`~repro.integrity.IntegrityConfig`
    (or ``True``): the label array is checksummed (``minedge`` digests
    ride along), SetDMin bid payloads are end-to-end checked, each
    round's winners are spot-checked against the Borůvka cut property,
    and detected corruption restores the round checkpoint and replays.

    ``adapter`` accepts a :class:`~repro.tuning.OnlineAdapter` (built
    with ``allow_offload=False`` — see the invariant note below); it may
    revise ``tprime`` between Borůvka rounds, never the forest.

    ``resilience`` accepts a :class:`~repro.resilience.RedundancyConfig`
    (or ``True``): the supervertex labels keep a charged off-node
    replica/parity of their round-top state, and a permanent node loss
    triggers epoch recovery — blocks reconstructed, ownership remapped
    onto the survivors or a cold spare, the lost round replayed.
    ``minedge`` carries per-round scratch only (reset at every round
    top), so it is rebuilt fresh on the new membership rather than
    replicated.
    """
    if graph.w is None:
        raise GraphError("MST needs a weighted graph; use with_random_weights()")
    machine = machine if machine is not None else hps_cluster()
    wall_start = time.perf_counter()
    rt = PGASRuntime(
        machine,
        profile=adapter is not None,
        faults=faults,
        integrity=integrity,
        resilience=resilience,
    )
    if adapter is not None:
        adapter.begin(rt)
    n = graph.n
    if n == 0 or graph.m == 0:
        info = SolveInfo(machine, "mst-collective", rt.elapsed, time.perf_counter() - wall_start, 0, rt.trace)
        labels = np.arange(n, dtype=np.int64)
        return MSTResult(np.empty(0, dtype=np.int64), 0, labels, info)

    ep = distribute_edges(graph, rt.s)
    u_part, v_part, w_part = ep.u, ep.v, ep.w
    id_part = ep.edge_ids()
    d = rt.shared_array(np.arange(n, dtype=np.int64), name="mst.d")
    minedge = rt.shared_array(np.full(n, NO_EDGE, dtype=np.int64), name="mst.minedge")
    rt.protect_array(d)
    # Packed (weight, position) keys have no fold-safe flip domain, so
    # minedge is digest-verified but not a block-flip target.
    rt.protect_array(minedge, corruptible=False)
    if rt.resilience is not None:
        rt.resilience.enroll(d)
    sizes_local = d.local_sizes().astype(np.float64)
    vert_offsets = np.zeros(rt.s + 1, dtype=np.int64)
    np.cumsum(d.local_sizes(), out=vert_offsets[1:])
    ctx = CollectiveContext()
    # The `offload` optimization's invariant (D[0] stays 0) holds for CC,
    # where grafting always hooks larger labels onto smaller ones.  It
    # does NOT hold for Boruvka: a supervertex hooks along its own
    # minimum edge regardless of label order, so d[0] may legitimately
    # rise.  The paper scopes offload to CC/spanning-tree accordingly
    # ("Fortunately, D[0] remains constant for CC"); MST must fetch
    # honestly.
    hot = None
    jump_opts = opts.with_(offload=False)

    # Verify-and-repair needs the checkpoint even with a crash-free plan,
    # and loss recovery replays from it under the new membership.
    ck = RoundCheckpointer(
        rt,
        enabled=True if (rt.integrity is not None or rt.resilience is not None) else None,
    )
    repairs = 0
    repair_bound = 8 * (4 + int(np.ceil(np.log2(max(n, 2)))))
    chosen: list[np.ndarray] = []
    iteration = 0
    while True:
        iteration += 1
        check_converged(iteration, n, "mst-collective")
        try:
            # Round-top invariants run BEFORE the save so the checkpoint
            # only ever holds invariant-clean state to restore into.
            if rt.integrity is not None:
                rt.integrity.verify_star_round(d)
            ck.save(
                arrays={d.name: d.data},
                u_part=u_part, v_part=v_part, w_part=w_part, id_part=id_part,
                nchosen=len(chosen),
            )
            if rt.resilience is not None:
                rt.resilience.commit_round()
            rt.counters.add(iterations=1)

            du = getd(rt, d, u_part, opts, ctx, "edges.u", tprime, sort_method, hot_value=hot)
            dv = getd(rt, d, v_part, opts, ctx, "edges.v", tprime, sort_method, hot_value=hot)
            cross = du != dv
            rt.local_ops(u_part.sizes().astype(np.float64))
            cross_per_thread = u_part.segment_counts_where(cross)
            if not rt.allreduce_flag(cross_per_thread > 0):
                break

            if cross.all():
                live = u_part
                du_c, dv_c = du, dv
                w_c, id_c = w_part.data, id_part.data
            else:
                # One selection serves every payload that shares the mask.
                sel = np.flatnonzero(cross)
                live = u_part.take_sorted(sel)
                du_c, dv_c = du.take(sel), dv.take(sel)
                w_c, id_c = w_part.data.take(sel), id_part.data.take(sel)
                if opts.compact:
                    u_part, v_part = live, live.with_data(v_part.data.take(sel))
                    w_part, id_part = live.with_data(w_c), live.with_data(id_c)
                    ctx.invalidate()

            # Candidate keys: (weight, live position) packed for min-reduction.
            positions = np.arange(live.total, dtype=np.int64)
            keys = pack_candidates(w_c, positions)
            rt.local_ops(2.0 * live.sizes().astype(np.float64))
            # Streaming the live edge slice (u, v, w, id) to build the bids.
            rt.local_stream(4.0 * live.sizes().astype(np.float64), Category.WORK)

            # Reset the per-supervertex minimum array (owner-local).
            rt.owner_block_write(minedge, NO_EDGE, counts=sizes_local)

            # Every live edge bids for both endpoint supervertices.
            targets = PartitionedArray.concat_pairwise(
                live.with_data(du_c), live.with_data(dv_c)
            )
            bids = PartitionedArray.concat_pairwise(
                live.with_data(keys), live.with_data(keys)
            )
            # Each bid ships a 4-word record: packed key, both endpoint
            # labels, and the global edge id.
            setdmin(
                rt, minedge, targets, bids.data, opts, None, None, tprime, sort_method,
                record_words=4, packed_payload=True,
            )

            # Owners scan their blocks for winners.
            rt.local_stream(sizes_local, Category.COPY)
            roots, pos = extract_winners(minedge.data)
            if rt.integrity is not None:
                # Cut-property spot check: sampled winners must be real
                # candidates, incident to their supervertex, weight intact.
                rt.integrity.verify_mst_selection(minedge, roots, pos, du_c, dv_c, w_c)
            chosen.append(np.unique(id_c[pos]))
            # The winning record's endpoints/edge-id ride along with the key
            # (the SetDMin payload); charge the owner-side unpack.
            rt.local_ops(4.0 * float(roots.size) / rt.s)

            # Hook each winning supervertex onto its partner (owner-local
            # write: minedge and d share the same distribution).
            ra, rb = du_c[pos], dv_c[pos]
            partners = ra + rb - roots
            rt.owner_indexed_write(d, roots, partners, category=Category.COPY)

            # Break mutual hooks; needs d[partner] — a collective gather.
            partner_part = partition_by_owner(roots, d).with_data(partners)
            getd(rt, d, partner_part, opts, None, None, tprime, sort_method)
            break_hook_cycles(d.data, roots)
            rt.local_ops(float(roots.size))
            if rt.integrity is not None:
                # Fold the in-place cycle-break stores into d's digests.
                rt.integrity.note_write(d, roots)

            pointer_jump_to_stars(rt, d, jump_opts, tprime, sort_method, vert_offsets)
            if adapter is not None:
                new_opts, tprime = adapter.on_round(opts, tprime)
                # Never let an adaptation re-enable offload here: the
                # D[0] invariant it relies on fails for Boruvka.
                opts = new_opts.with_(offload=False)
                jump_opts = opts
        except NodeLoss as loss:
            # Permanent membership change: reconstruct d from redundancy,
            # remap onto the post-loss machine, and replay the round.
            # minedge is per-round scratch (reset at every round top), so
            # it is simply re-allocated on the new membership.
            recovered = rt.resilience.recover_loss(loss, ck, adapter=adapter)
            rt, machine, ck = recovered.rt, recovered.machine, recovered.ck
            d = recovered.arrays[d.name]
            state = recovered.state
            u_part, v_part = state["u_part"], state["v_part"]
            w_part, id_part = state["w_part"], state["id_part"]
            del chosen[state["nchosen"]:]
            minedge = rt.shared_array(np.full(n, NO_EDGE, dtype=np.int64), name="mst.minedge")
            rt.protect_array(minedge, corruptible=False)
            sizes_local = d.local_sizes().astype(np.float64)
            vert_offsets = np.zeros(rt.s + 1, dtype=np.int64)
            np.cumsum(d.local_sizes(), out=vert_offsets[1:])
            ctx = CollectiveContext()
            iteration -= 1
            continue
        except (ThreadCrash, IntegrityError) as fault:
            state = ck.restore()
            # repro: waive[CM01] checkpoint restore; RoundCheckpointer charges the pass
            d.data[:] = state[d.name]
            u_part, v_part = state["u_part"], state["v_part"]
            w_part, id_part = state["w_part"], state["id_part"]
            del chosen[state["nchosen"]:]
            if rt.integrity is not None:
                rt.integrity.resync(d)
            if isinstance(fault, IntegrityError):
                rt.counters.add(repairs=1)
                repairs += 1
                if repairs > repair_bound:
                    raise FaultError(
                        f"mst-collective gave up after {repairs} integrity repairs"
                        " (corruption rate exceeds what replay can absorb)"
                    ) from fault
            ctx.invalidate()
            iteration -= 1
            continue

    edge_ids = (
        np.sort(np.concatenate(chosen)) if chosen else np.empty(0, dtype=np.int64)
    )
    total = int(graph.w[edge_ids].sum()) if edge_ids.size else 0
    info = SolveInfo(
        machine, "mst-collective", rt.elapsed, time.perf_counter() - wall_start, iteration, rt.trace
    )
    return MSTResult(edge_ids, total, d.data.copy(), info)
