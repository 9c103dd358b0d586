"""Shiloach-Vishkin connected components, rewritten with collectives.

"We also rewrite the classic Shiloach-Vishkin connected components
algorithm (SV).  Prior studies show that SV is slower than CC on SMPs.
Yet the synchronous nature of SV makes it easy for rewriting.  The major
difference between SV and CC is in the short-cutting step.  Only one
level of pointer-jumping is applied in SV ... SV allows grafting rooted
stars to other components when the normal grafting condition does not
occur."

SV is a round step on the Liu–Tarjan solve shell
(:func:`repro.lt.solver.solve_lattice`), so it takes every fault class
and protection the lattice does.  Per round: the ``lt-rs`` connect phase
(the conditional graft, same rule as CC), star detection, the
stagnant-star hook, and a *single* pointer-jump round — 17 GetD/SetD
calls against CC's 5 plus its jump rounds, so the paper's Fig. 3
observation "SV is slower than CC due to more collective calls in one
iteration" falls straight out.  A hook raises labels, so neither
``D[v] <= v`` nor all-stars holds at a round top: there is no round
invariant to verify, and the block digests and payload checksums are
what detect corruption.  At termination the labels are stars, and that
is all that is checked: a component without vertex 0 may converge on a
label above its minimum vertex's id (the minimum's stagnant star hooks
upward), so ``D[v] <= v`` need not hold even then.

Determinism notes (legal arbitrary-CRCW adjudications, documented in
DESIGN.md):

* conditional grafts resolve by minimum (labels only shrink);
* the stagnant-star hook resolves by *minimum proposal, plain store*
  (a star root's label may legitimately rise); hooks are restricted to
  raising targets (``value > target``) — the shrinking direction is
  already covered by the conditional graft — which makes one round's
  hook chains acyclic, and hooks never target vertex 0 so the ``offload`` invariant
  ``D[0] == 0`` is preserved (component 0 is absorbed by conditional
  grafts instead, since its label is globally minimal).
"""

from __future__ import annotations

import numpy as np

from ..collectives.getd import getd
from ..collectives.setd import setd
from ..core.optimizations import OptimizationFlags
from ..core.results import CCResult
from ..graph.edgelist import EdgeList
from ..lt.solver import connect_phase, solve_lattice
from ..runtime.machine import MachineConfig
from ..runtime.partitioned import PartitionedArray
from .common import iteration_bound

__all__ = ["solve_cc_sv"]


def _sv_scratch(st) -> None:
    """Allocate the per-run arrays on ``st.rt``.  The star, change and
    stagnant flags are rewritten whole every round, so they are never
    checkpointed, only re-allocated after a membership change."""
    rt, n = st.rt, st.d.size
    st.star = rt.shared_array(np.ones(n, dtype=np.int64))
    st.ch = rt.shared_array(np.zeros(n, dtype=np.int64))
    st.stag = rt.shared_array(np.zeros(n, dtype=np.int64))
    st.sizes_local = st.d.local_sizes().astype(np.float64)
    st.vert_offsets = np.zeros(rt.s + 1, dtype=np.int64)
    np.cumsum(st.d.local_sizes(), out=st.vert_offsets[1:])


def _label_partition(st) -> PartitionedArray:
    """Every vertex's label, as a request list partitioned by owner."""
    return PartitionedArray(st.rt.owner_block_read(st.d, counts=st.sizes_local), st.vert_offsets)


def _verify_stars(st) -> None:
    """Termination contract: the converged labels are stars."""
    st.rt.integrity.verify_star_round(st.d)


def _sv_round(st) -> bool:
    """One SV round; ``True`` once nothing moved.  Round buffers are
    bound on ``st`` (see run_rounds: heap trimming)."""
    st.before = before = st.d.data.copy()

    # 1. Conditional grafting: the lt-rs connect phase.
    changed_graft = connect_phase(st)
    rt, d, ctx, hot = st.rt, st.d, st.ctx, st.hot
    opts, tprime, sort_method = st.opts, st.tprime, st.sort_method
    star, ch, stag, sizes_local = st.star, st.ch, st.stag, st.sizes_local
    u_part, v_part = st.u_part, st.v_part

    # 2. Change flags, owner-local.
    rt.owner_block_write(ch, (d.data != before).astype(np.int64), counts=sizes_local)

    # 3. Star detection (classic three-step check).
    st.idxp = idxp = _label_partition(st)
    st.grand = grand = getd(rt, d, idxp, opts, None, None, tprime, sort_method, hot_value=hot)
    rt.owner_block_write(star, 1, counts=sizes_local)
    st.non_star = non_star = grand != d.data
    # star[i] = false, owner-local
    rt.owner_masked_write(star, non_star, 0, charge="ops", counts=sizes_local)
    # star[D[D[i]]] = false for the same i — remote scatter.
    gp = PartitionedArray(grand, st.vert_offsets).filter(non_star)
    setd(rt, star, gp, np.zeros(gp.total, dtype=np.int64), opts, None, None, tprime, sort_method)
    # star[i] = star[D[i]] — remote gather of the parent's flag.
    st.star_at_parent = star_at_parent = getd(rt, star, idxp, opts, None, None, tprime, sort_method)
    rt.owner_block_write(star, star_at_parent, counts=sizes_local)

    # 4. Stagnant stars: in a star whose root's label did not change.
    st.ch_at_root = ch_at_root = getd(rt, ch, idxp, opts, None, None, tprime, sort_method)
    rt.owner_block_write(stag, star.data & (ch_at_root == 0), charge="ops", counts=sizes_local)

    # 5. Hook stagnant stars onto (larger-labeled) neighbours.
    #
    # The hook must be computed from *post-graft* roots: the same
    # round's conditional graft may already have moved the other
    # endpoint's root (e.g. D[9] <- 5), and hooking against the stale
    # pre-graft label would re-raise it (D[5] <- 9), creating a 2-cycle
    # the pointer jumping can never resolve.  Four more collectives
    # fetch fresh labels and their parents — part of why "SV is slower
    # than CC due to more collective calls".
    st.fdu = fdu = getd(rt, d, u_part, opts, None, None, tprime, sort_method, hot_value=hot)
    st.fdv = fdv = getd(rt, d, v_part, opts, None, None, tprime, sort_method, hot_value=hot)
    st.gdu = gdu = getd(
        rt, d, u_part.with_data(fdu), opts, None, None, tprime, sort_method, hot_value=hot
    )
    st.gdv = gdv = getd(
        rt, d, v_part.with_data(fdv), opts, None, None, tprime, sort_method, hot_value=hot
    )
    st.stag_u = stag_u = getd(rt, stag, u_part, opts, ctx, "edges.u", tprime, sort_method)
    st.stag_v = stag_v = getd(rt, stag, v_part, opts, ctx, "edges.v", tprime, sort_method)
    rt.local_ops(4.0 * u_part.sizes().astype(np.float64))
    st.hook_u = hook_u = (stag_u == 1) & (gdv > gdu) & (gdu != 0)
    st.hook_v = hook_v = (stag_v == 1) & (gdu > gdv) & (gdv != 0)
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
    st.idxp2 = idxp2 = _label_partition(st)
    st.grand2 = grand2 = getd(rt, d, idxp2, opts, None, None, tprime, sort_method, hot_value=None)
    moved = grand2 != d.data
    rt.owner_block_write(d, grand2, counts=sizes_local)
    changed_jump = int(np.count_nonzero(moved))

    total_changed = changed_graft + changed_hook + changed_jump
    return not rt.allreduce_flag(np.full(rt.s, total_changed > 0))


def solve_cc_sv(
    graph: EdgeList,
    machine: MachineConfig | None = None,
    opts: OptimizationFlags = OptimizationFlags.all(),
    tprime: int = 1,
    sort_method: str = "count",
    faults=None,
    integrity=None,
    resilience=None,
) -> CCResult:
    """Collective-based Shiloach-Vishkin connected components.

    ``faults``, ``integrity`` and ``resilience`` behave as in
    :func:`~repro.cc.collective.solve_cc_collective`; under integrity
    the converged labels are checked to be stars, and nothing more."""
    return solve_lattice(
        graph, machine, opts, tprime, sort_method, "lt-rs",
        name="cc-sv", array="sv.d", bound=iteration_bound(graph.n),
        verify=None, final=_verify_stars, faults=faults,
        integrity=integrity, resilience=resilience,
        step=_sv_round, scratch=_sv_scratch,
    )
