"""Shiloach-Vishkin connected components, rewritten with collectives.

"We also rewrite the classic Shiloach-Vishkin connected components
algorithm (SV).  Prior studies show that SV is slower than CC on SMPs.
Yet the synchronous nature of SV makes it easy for rewriting.  The major
difference between SV and CC is in the short-cutting step.  Only one
level of pointer-jumping is applied in SV ... SV allows grafting rooted
stars to other components when the normal grafting condition does not
occur."

Per iteration: conditional graft (same rule as CC), star detection, the
stagnant-star hook, and a *single* pointer-jump round.  SV issues ~12
collective calls per iteration vs CC's ~5 plus jump rounds — the paper's
Fig. 3 observation "SV is slower than CC due to more collective calls in
one iteration" falls straight out.

Determinism notes (legal arbitrary-CRCW adjudications, documented in
DESIGN.md):

* conditional grafts resolve by minimum (labels only shrink);
* the stagnant-star hook resolves by *minimum proposal, plain store*
  (a star root's label may legitimately rise); hooks are restricted to
  raising targets (``value > target``) — the shrinking direction is
  already covered by the conditional graft — which makes hook chains
  acyclic, and hooks never target vertex 0 so the ``offload`` invariant
  ``D[0] == 0`` is preserved (component 0 is absorbed by conditional
  grafts instead, since its label is globally minimal).
"""

from __future__ import annotations

import time

import numpy as np

from ..collectives.base import CollectiveContext
from ..collectives.getd import getd
from ..collectives.setd import setd
from ..core.optimizations import OptimizationFlags
from ..core.results import CCResult, SolveInfo
from ..graph.distribute import distribute_edges
from ..graph.edgelist import EdgeList
from ..runtime.machine import MachineConfig, hps_cluster
from ..runtime.partitioned import PartitionedArray
from ..runtime.runtime import PGASRuntime
from ..runtime.shared_array import id_dtype
from .common import check_converged, graft_proposals

__all__ = ["solve_cc_sv"]


def solve_cc_sv(
    graph: EdgeList,
    machine: MachineConfig | None = None,
    opts: OptimizationFlags = OptimizationFlags.all(),
    tprime: int = 1,
    sort_method: str = "count",
) -> CCResult:
    """Collective-based Shiloach-Vishkin connected components."""
    machine = machine if machine is not None else hps_cluster()
    wall_start = time.perf_counter()
    rt = PGASRuntime(machine)
    n = graph.n
    if n == 0:
        info = SolveInfo(machine, "cc-sv", 0.0, time.perf_counter() - wall_start, 0, rt.trace)
        return CCResult(np.empty(0, dtype=np.int64), info)

    ep = distribute_edges(graph, rt.s)
    u_part, v_part = ep.u, ep.v
    d = rt.shared_array(np.arange(n, dtype=id_dtype(n)))
    star = rt.shared_array(np.ones(n, dtype=np.int64))
    ch = rt.shared_array(np.zeros(n, dtype=np.int64))
    stag = rt.shared_array(np.zeros(n, dtype=np.int64))
    sizes_local = d.local_sizes().astype(np.float64)
    vert_offsets = np.zeros(rt.s + 1, dtype=np.int64)
    np.cumsum(d.local_sizes(), out=vert_offsets[1:])
    ctx = CollectiveContext()
    hot = 0 if opts.offload else None

    def label_partition() -> PartitionedArray:
        return PartitionedArray(rt.owner_block_read(d, counts=sizes_local), vert_offsets)

    iteration = 0
    while True:
        iteration += 1
        check_converged(iteration, n, "cc-sv")
        rt.counters.add(iterations=1)

        # 1. Conditional grafting (identical rule to CC).
        du = getd(rt, d, u_part, opts, ctx, "edges.u", tprime, sort_method, hot_value=hot)
        dv = getd(rt, d, v_part, opts, ctx, "edges.v", tprime, sort_method, hot_value=hot)
        if opts.compact:
            keep = du != dv
            rt.local_ops(u_part.sizes().astype(np.float64))
            if not keep.all():
                u_part = u_part.filter(keep)
                v_part = v_part.filter(keep)
                du, dv = du[keep], dv[keep]
                ctx.invalidate()
        ddu = getd(rt, d, u_part.with_data(du), opts, None, None, tprime, sort_method, hot_value=hot)
        ddv = getd(rt, d, v_part.with_data(dv), opts, None, None, tprime, sort_method, hot_value=hot)
        rt.local_ops(6.0 * u_part.sizes().astype(np.float64))
        before = d.data.copy()
        step = graft_proposals(du, dv, ddu, ddv)
        graft_targets = u_part.take_sorted(step.sel).with_data(step.targets)
        changed_graft = setd(
            rt, d, graft_targets, step.values, opts, None, None, tprime, sort_method,
            drop_hot=True, hot_index=0,
        )

        # 2. Change flags, owner-local.
        rt.owner_block_write(ch, (d.data != before).astype(np.int64), counts=sizes_local)

        # 3. Star detection (classic three-step check).
        idxp = label_partition()
        grand = getd(rt, d, idxp, opts, None, None, tprime, sort_method, hot_value=hot)
        rt.owner_block_write(star, 1, counts=sizes_local)
        non_star = grand != d.data
        # star[i] = false, owner-local
        rt.owner_masked_write(star, non_star, 0, charge="ops", counts=sizes_local)
        # star[D[D[i]]] = false for the same i — remote scatter.
        gp = PartitionedArray(grand, vert_offsets).filter(non_star)
        setd(rt, star, gp, np.zeros(gp.total, dtype=np.int64), opts, None, None, tprime, sort_method)
        # star[i] = star[D[i]] — remote gather of the parent's flag.
        star_at_parent = getd(rt, star, idxp, opts, None, None, tprime, sort_method)
        rt.owner_block_write(star, star_at_parent, counts=sizes_local)

        # 4. Stagnant stars: in a star whose root's label did not change.
        ch_at_root = getd(rt, ch, idxp, opts, None, None, tprime, sort_method)
        rt.owner_block_write(stag, star.data & (ch_at_root == 0), charge="ops", counts=sizes_local)

        # 5. Hook stagnant stars onto (larger-labeled) neighbours.
        #
        # The hook must be computed from *post-graft* roots: the same
        # iteration's conditional graft may already have moved the other
        # endpoint's root (e.g. D[9] <- 5), and hooking against the stale
        # pre-graft label would re-raise it (D[5] <- 9), creating a
        # 2-cycle the pointer jumping can never resolve.  Four more
        # collectives fetch fresh labels and their parents — part of why
        # "SV is slower than CC due to more collective calls".
        fdu = getd(rt, d, u_part, opts, None, None, tprime, sort_method, hot_value=hot)
        fdv = getd(rt, d, v_part, opts, None, None, tprime, sort_method, hot_value=hot)
        gdu = getd(rt, d, u_part.with_data(fdu), opts, None, None, tprime, sort_method, hot_value=hot)
        gdv = getd(rt, d, v_part.with_data(fdv), opts, None, None, tprime, sort_method, hot_value=hot)
        stag_u = getd(rt, stag, u_part, opts, ctx, "edges.u", tprime, sort_method)
        stag_v = getd(rt, stag, v_part, opts, ctx, "edges.v", tprime, sort_method)
        rt.local_ops(4.0 * u_part.sizes().astype(np.float64))
        hook_u = (stag_u == 1) & (gdv > gdu) & (gdu != 0)
        hook_v = (stag_v == 1) & (gdu > gdv) & (gdv != 0)
        t_u = u_part.filter(hook_u).with_data(gdu[hook_u])
        t_v = v_part.filter(hook_v).with_data(gdv[hook_v])
        hook_targets = PartitionedArray.concat_pairwise(t_u, t_v)
        hook_values = PartitionedArray.concat_pairwise(
            u_part.filter(hook_u).with_data(gdv[hook_u]),
            v_part.filter(hook_v).with_data(gdu[hook_v]),
        )
        changed_hook = setd(
            rt, d, hook_targets, hook_values.data, opts, None, None, tprime, sort_method,
            combine="store_min",
        )

        # 6. One pointer-jump round.
        idxp2 = label_partition()
        grand2 = getd(rt, d, idxp2, opts, None, None, tprime, sort_method, hot_value=None)
        moved = grand2 != d.data
        rt.owner_block_write(d, grand2, counts=sizes_local)
        changed_jump = int(np.count_nonzero(moved))

        total_changed = changed_graft + changed_hook + changed_jump
        if not rt.allreduce_flag(np.full(rt.s, total_changed > 0)):
            break

    labels = d.data.astype(np.int64)
    info = SolveInfo(
        machine, "cc-sv", rt.elapsed, time.perf_counter() - wall_start, iteration, rt.trace
    )
    return CCResult(labels, info)
