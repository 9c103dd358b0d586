"""CC rewritten with the GetD/SetD collectives (paper Sections IV-V).

The grafting reads and writes become coalesced collectives, and the
asynchronous shortcut is replaced by *synchronous* lock-step pointer
jumping — "We insert artificial synchronizations into pointer-jumping ...
the modification makes communication coalescing possible."  After the
rewrite, all remote accesses occur inside ``O(log^2 n)`` collective
calls, each incurring at most one message per thread pair.

All Section V optimizations are honored via :class:`OptimizationFlags`:
``compact`` filters settled edges at the top of each iteration (before
the expensive root-check collectives), ``offload`` short-circuits
requests for the constant ``D[0]``, ``circular``/``localcpy``/``ids``/
``rdma`` act inside the collectives, and ``tprime`` adds the in-node
virtual-thread recursion level of Algorithm 1.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np

from ..collectives.base import CollectiveContext
from ..collectives.getd import getd
from ..collectives.setd import setd
from ..core.optimizations import OptimizationFlags
from ..core.results import CCResult, SolveInfo
from ..faults.rounds import run_rounds
from ..graph.distribute import distribute_edges
from ..graph.edgelist import EdgeList
from ..runtime.machine import MachineConfig, hps_cluster
from ..runtime.partitioned import PartitionedArray
from ..runtime.runtime import PGASRuntime
from .common import check_converged, graft_proposals, iteration_bound

__all__ = ["solve_cc_collective", "pointer_jump_to_stars", "pointer_jump_once"]


def _pointer_jump(rt: PGASRuntime, d, opts, tprime, sort_method, full: bool) -> int:
    """Synchronous pointer jumping; returns the number of labels moved.

    Each round every thread streams its local labels, collectively
    fetches the grandparents, and overwrites its block.  ``full`` repeats
    rounds until a flag allreduce finds nothing moved (every tree a
    rooted star); otherwise exactly one round runs.
    """
    # One partition of the label array per call, on d's owner blocks;
    # every round's request buffer is a sibling that shares its layout.
    sizes = d.local_sizes()
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    verts = PartitionedArray(d.data, offsets)
    hot = 0 if opts.offload else None
    moved = 0
    rounds = 0
    while True:
        rounds += 1
        check_converged(rounds, d.size, "collective pointer jumping")
        idxp = verts.with_data(rt.owner_block_read(d))
        grand = getd(
            rt, d, idxp, opts, ctx=None, cache_key=None,
            tprime=tprime, sort_method=sort_method, hot_value=hot,
        )
        moved_per_thread = verts.segment_counts_where(grand != d.data)
        rt.owner_block_write(d, grand)
        moved += int(moved_per_thread.sum())
        if not full:
            return moved
        if not rt.allreduce_flag(moved_per_thread > 0):
            return moved


def pointer_jump_to_stars(
    rt: PGASRuntime,
    d,
    opts: OptimizationFlags,
    tprime: int,
    sort_method: str,
) -> int:
    """Pointer jumping until every tree is a rooted star; returns the
    number of labels moved over all rounds."""
    return _pointer_jump(rt, d, opts, tprime, sort_method, full=True)


def pointer_jump_once(
    rt: PGASRuntime, d, opts: OptimizationFlags, tprime: int, sort_method: str
) -> int:
    """Exactly one pointer-jumping round (no stars guarantee, no
    allreduce); returns the number of labels moved."""
    return _pointer_jump(rt, d, opts, tprime, sort_method, full=False)


def _verify_grafting(st) -> None:
    st.rt.integrity.verify_cc_round(st.d)


def _graft_round(st) -> bool:
    """One grafting round; ``True`` once no label changed anywhere."""
    rt, d, ctx = st.rt, st.d, st.ctx
    opts, tprime, sort_method = st.opts, st.tprime, st.sort_method
    u_part, v_part = st.u_part, st.v_part
    # Recomputed per round: the adapter may have flipped `offload`.
    hot = 0 if opts.offload else None

    # Round buffers are bound on `st` too, so that each lives until the
    # next round replaces it (see run_rounds: heap trimming).
    st.du = du = getd(rt, d, u_part, opts, ctx, "edges.u", tprime, sort_method, hot_value=hot)
    st.dv = dv = getd(rt, d, v_part, opts, ctx, "edges.v", tprime, sort_method, hot_value=hot)

    if opts.compact:
        st.keep = keep = du != dv
        rt.local_ops(u_part.sizes().astype(np.float64))
        if not keep.all():
            # One selection serves all four payloads of the mask.
            sel = np.flatnonzero(keep)
            u_part = u_part.take_sorted(sel)
            v_part = u_part.with_data(v_part.data.take(sel))
            st.du = du = du.take(sel)
            st.dv = dv = dv.take(sel)
            st.u_part, st.v_part = u_part, v_part
            ctx.invalidate()

    st.ddu = ddu = getd(
        rt, d, u_part.with_data(du), opts, None, None, tprime, sort_method, hot_value=hot
    )
    st.ddv = ddv = getd(
        rt, d, v_part.with_data(dv), opts, None, None, tprime, sort_method, hot_value=hot
    )
    rt.local_ops(6.0 * u_part.sizes().astype(np.float64))

    st.graft = graft = graft_proposals(du, dv, ddu, ddv)
    st.targets = targets = u_part.take_sorted(graft.sel).with_data(graft.targets)
    changed = setd(
        rt, d, targets, graft.values, opts, ctx=None, cache_key=None,
        tprime=tprime, sort_method=sort_method,
        drop_hot=True, hot_index=0,
    )
    pointer_jump_to_stars(rt, d, opts, tprime, sort_method)

    done = not rt.allreduce_flag(np.full(rt.s, changed > 0))
    if st.adapter is not None and not done:
        new_opts, st.tprime = st.adapter.on_round(opts, tprime)
        if new_opts.compact != opts.compact:
            # compact changes which requests exist; the id cache
            # must not serve buffers for the old request lists.
            ctx.invalidate()
        st.opts = new_opts
    return done


def solve_cc_collective(
    graph: EdgeList,
    machine: MachineConfig | None = None,
    opts: OptimizationFlags = OptimizationFlags.all(),
    tprime: int = 1,
    sort_method: str = "count",
    faults=None,
    adapter=None,
    integrity=None,
    resilience=None,
) -> CCResult:
    """Connected components via GetD/SetD collectives.

    Produces the same labels as every other implementation in this
    package (snapshot grafting, min adjudication).

    ``faults``, ``integrity`` and ``resilience`` (a
    :class:`~repro.faults.FaultPlan`, an
    :class:`~repro.integrity.IntegrityConfig` or ``True``, a
    :class:`~repro.resilience.RedundancyConfig` or ``True``) make each
    grafting round a checkpointed unit of recovery: the label array and
    the live edge partitions are saved at every round top, and a crash,
    a detected corruption or a permanent node loss replays the lost
    round (:func:`~repro.faults.rounds.run_rounds`,
    ``docs/fault-model.md``).  Without ``resilience`` a node loss raises
    :class:`~repro.errors.UnrecoverableLossError`.

    ``adapter`` accepts a :class:`~repro.tuning.OnlineAdapter`: after
    each grafting round it digests the round's phase records and may
    revise ``opts``/``tprime`` for the next round (performance knobs
    only — labels are identical with or without it).  Profiling is
    forced on so the adapter has phase records to read.
    """
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
    if n == 0:
        info = SolveInfo(machine, "cc-collective", 0.0, time.perf_counter() - wall_start, 0, rt.trace)
        return CCResult(np.empty(0, dtype=np.int64), info)

    ep = distribute_edges(graph, rt.s)
    d = rt.shared_array(np.arange(n, dtype=np.int64), name="cc.d")
    rt.protect_array(d)
    if rt.resilience is not None:
        rt.resilience.enroll(d)
    st = SimpleNamespace(
        rt=rt, d=d, ctx=CollectiveContext(), u_part=ep.u, v_part=ep.v,
        opts=opts, tprime=tprime, sort_method=sort_method, adapter=adapter,
    )
    iterations = run_rounds(
        st, _graft_round, name="cc-collective", bound=iteration_bound(n),
        refs=("u_part", "v_part"), verify=_verify_grafting, adapter=adapter,
    )
    rt = st.rt
    info = SolveInfo(
        rt.machine, "cc-collective", rt.elapsed, time.perf_counter() - wall_start, iterations, rt.trace
    )
    return CCResult(st.d.data.copy(), info)
