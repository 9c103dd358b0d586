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
from types import SimpleNamespace

import numpy as np

from ..cc.collective import pointer_jump_to_stars
from ..cc.common import iteration_bound
from ..collectives.base import CollectiveContext
from ..collectives.getd import getd
from ..collectives.setd import setdmin
from ..core.optimizations import OptimizationFlags
from ..core.results import MSTResult, SolveInfo
from ..errors import GraphError
from ..faults.rounds import run_rounds
from ..graph.distribute import distribute_edges
from ..graph.edgelist import EdgeList
from ..runtime.machine import MachineConfig, hps_cluster
from ..runtime.partitioned import PartitionedArray
from ..runtime.runtime import PGASRuntime
from ..runtime.shared_array import SharedArray, id_dtype
from ..runtime.trace import Category
from .common import NO_EDGE, break_hook_cycles, extract_winners, pack_candidates

__all__ = ["solve_mst_collective", "partition_by_owner"]


def partition_by_owner(indices: np.ndarray, shared: SharedArray) -> PartitionedArray:
    """Partition a *sorted* index array by owning thread (blocked layout
    keeps owners monotone, so the split is a searchsorted)."""
    owners = shared.owner_thread(indices)
    s = shared.machine.total_threads
    offsets = np.searchsorted(owners, np.arange(s + 1, dtype=np.int64))
    return PartitionedArray(indices, offsets)


def _verify_boruvka(st) -> None:
    st.rt.integrity.verify_star_round(st.d)


def _fresh_minedge(st) -> None:
    """Allocate the per-supervertex minimum array on ``st.rt``.

    It carries per-round scratch only (reset at every round top), so a
    membership change re-allocates it on the new runtime instead of
    recovering it.  Packed (weight, position) keys have no fold-safe flip
    domain, so it is digest-verified but not a block-flip target.
    """
    st.minedge = st.rt.shared_array(np.full(st.d.size, NO_EDGE, dtype=np.int64), name="mst.minedge")
    st.rt.protect_array(st.minedge, corruptible=False)


def _boruvka_round(st) -> bool:
    """One Borůvka round; ``True`` once no edge joins two supervertices."""
    rt, d, minedge, ctx = st.rt, st.d, st.minedge, st.ctx
    opts, tprime, sort_method = st.opts, st.tprime, st.sort_method
    u_part, v_part, w_part, id_part = st.u_part, st.v_part, st.w_part, st.id_part

    # The `offload` optimization's invariant (D[0] stays 0) holds for CC,
    # where grafting always hooks larger labels onto smaller ones.  It
    # does NOT hold for Boruvka: a supervertex hooks along its own
    # minimum edge regardless of label order, so d[0] may legitimately
    # rise.  The paper scopes offload to CC/spanning-tree accordingly
    # ("Fortunately, D[0] remains constant for CC"); MST must fetch
    # honestly, so no GetD here passes a hot value.
    # Round buffers are bound on `st` too, so that each lives until the
    # next round replaces it (see run_rounds: heap trimming).
    st.du = du = getd(rt, d, u_part, opts, ctx, "edges.u", tprime, sort_method)
    st.dv = dv = getd(rt, d, v_part, opts, ctx, "edges.v", tprime, sort_method)
    st.cross = cross = du != dv
    rt.local_ops(u_part.sizes().astype(np.float64))
    cross_per_thread = u_part.segment_counts_where(cross)
    if not rt.allreduce_flag(cross_per_thread > 0):
        return True

    if cross.all():
        live = u_part
        du_c, dv_c = du, dv
        w_c, id_c = w_part.data, id_part.data
    else:
        # One selection serves every payload that shares the mask.
        sel = np.flatnonzero(cross)
        live = u_part.take_sorted(sel)
        st.du_c, st.dv_c = du_c, dv_c = du.take(sel), dv.take(sel)
        st.w_c, st.id_c = w_c, id_c = w_part.data.take(sel), id_part.data.take(sel)
        if opts.compact:
            st.u_part, st.v_part = live, live.with_data(v_part.data.take(sel))
            st.w_part, st.id_part = live.with_data(w_c), live.with_data(id_c)
            ctx.invalidate()

    # Candidate keys: (weight, live position) packed for min-reduction.
    st.positions = positions = np.arange(live.total, dtype=np.int64)
    st.keys = keys = pack_candidates(w_c, positions)
    rt.local_ops(2.0 * live.sizes().astype(np.float64))
    # Streaming the live edge slice (u, v, w, id) to build the bids.
    rt.local_stream(4.0 * live.sizes().astype(np.float64), Category.WORK)

    # Reset the per-supervertex minimum array (owner-local).
    sizes_local = d.local_sizes().astype(np.float64)
    rt.owner_block_write(minedge, NO_EDGE, counts=sizes_local)

    # Every live edge bids for both endpoint supervertices.
    st.targets = targets = PartitionedArray.concat_pairwise(
        live.with_data(du_c), live.with_data(dv_c)
    )
    st.bids = bids = PartitionedArray.concat_pairwise(
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
    st.chosen += (np.unique(id_c[pos]),)
    # The winning record's endpoints/edge-id ride along with the key
    # (the SetDMin payload); charge the owner-side unpack.
    rt.local_ops(4.0 * float(roots.size) / rt.s)

    # Hook each winning supervertex onto its partner, the winning
    # edge's other endpoint label (owner-local write: minedge and d
    # share the same distribution).  A select keeps d's id width, where
    # arithmetic with the intp `roots` would widen it.
    ra, rb = du_c[pos], dv_c[pos]
    partners = np.where(ra == roots, rb, ra)
    rt.owner_indexed_write(d, roots, partners, category=Category.COPY)

    # Break mutual hooks; needs d[partner] — a collective gather.
    partner_part = partition_by_owner(roots, d).with_data(partners)
    getd(rt, d, partner_part, opts, None, None, tprime, sort_method)
    break_hook_cycles(d.data, roots)
    rt.local_ops(float(roots.size))
    if rt.integrity is not None:
        # Fold the in-place cycle-break stores into d's digests only;
        # the comment on SetD's note_write (collectives/setd.py) says why.
        rt.integrity.note_write(d, roots)

    pointer_jump_to_stars(rt, d, opts.with_(offload=False), tprime, sort_method)
    if st.adapter is not None:
        new_opts, st.tprime = st.adapter.on_round(opts, tprime)
        # Never let an adaptation re-enable offload here: the
        # D[0] invariant it relies on fails for Boruvka.
        st.opts = new_opts.with_(offload=False)
    return False


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

    ``faults``, ``integrity`` and ``resilience`` behave as in
    :func:`~repro.cc.collective.solve_cc_collective`: each Borůvka round
    checkpoints the supervertex labels, the live edge partitions and the
    forest so far, and a crash, a detected corruption or a node loss
    replays the lost round (:func:`~repro.faults.rounds.run_rounds`).
    Under ``integrity`` SetDMin bid payloads are end-to-end checked and
    each round's winners are spot-checked against the cut property.

    ``adapter`` accepts a :class:`~repro.tuning.OnlineAdapter` (built
    with ``allow_offload=False`` — see the invariant note in the round);
    it may revise ``tprime`` between Borůvka rounds, never the forest.
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
    n = graph.n
    if n == 0 or graph.m == 0:
        info = SolveInfo(machine, "mst-collective", rt.elapsed, time.perf_counter() - wall_start, 0, rt.trace)
        labels = np.arange(n, dtype=np.int64)
        return MSTResult(np.empty(0, dtype=np.int64), 0, labels, info)

    ep = distribute_edges(graph, rt.s)
    d = rt.shared_array(np.arange(n, dtype=id_dtype(n)), name="mst.d")
    rt.protect_array(d)
    if rt.resilience is not None:
        rt.resilience.enroll(d)
    # ``chosen`` is a tuple, rebound (never mutated) as rounds add forest
    # edges, so the checkpoint saves it by reference and a replay simply
    # drops the edges of the lost round.
    st = SimpleNamespace(
        rt=rt, d=d, ctx=CollectiveContext(), chosen=(),
        u_part=ep.u, v_part=ep.v, w_part=ep.w, id_part=ep.edge_ids(),
        opts=opts, tprime=tprime, sort_method=sort_method, adapter=adapter,
    )
    _fresh_minedge(st)
    iterations = run_rounds(
        st, _boruvka_round, name="mst-collective", bound=iteration_bound(n),
        refs=("u_part", "v_part", "w_part", "id_part", "chosen"),
        verify=_verify_boruvka, rebuild=_fresh_minedge, adapter=adapter,
    )

    rt = st.rt
    edge_ids = (
        np.sort(np.concatenate(st.chosen)).astype(np.int64)
        if st.chosen else np.empty(0, dtype=np.int64)
    )
    total = int(graph.w[edge_ids].sum()) if edge_ids.size else 0
    info = SolveInfo(
        rt.machine, "mst-collective", rt.elapsed, time.perf_counter() - wall_start, iterations, rt.trace
    )
    return MSTResult(edge_ids, total, st.d.data.astype(np.int64), info)
