"""Phase-composed collective solver for the Liu–Tarjan lattice.

Every variant is the same round, :func:`_lattice_round`, with the three
phases swapped in — connect, shortcut, optional alter — all built from
the GetD/SetD collectives, so each point of the lattice inherits
communication coalescing, the cost model, the race detector, fault
injection, and the integrity machinery without variant-specific code:

1. **Connect** — fetch the round-top labels of both endpoints, compute
   the variant's proposal set from that snapshot, and apply it with one
   min-adjudicated SetD.  All three connect rules only ever propose
   values strictly below the target's vertex id, so ``D`` stays a
   monotone (``D[v] <= v``) rooted forest and ``D[0] == 0`` holds
   throughout — which is exactly what makes the ``offload`` hot-value
   short-circuit and ``drop_hot`` sound for every variant.
2. **Shortcut** — synchronous pointer jumping: one round (``partial``)
   or iterated to all-stars (``full``), with the loop exit decided by a
   uniform flag allreduce.
3. **Alter** — optionally replace the edge endpoints with their current
   labels (two more GetD rounds); later rounds then walk labels of
   labels.

A round with no label movement anywhere implies all-stars *and* no live
proposals, which for all three connect rules implies every edge has
settled (endpoint labels equal) — the termination test is simply "did
anything change", reduced over threads.

Fault tolerance is the shared round driver,
:func:`repro.faults.rounds.run_rounds`: each round checkpoints the label
array and the live edge partitions; injected crashes and detected
corruption restore the checkpoint, resync the integrity shadows, and
replay the lost round; a node loss replays it on the surviving
membership.  The round-top invariants
(:meth:`~repro.integrity.monitor.IntegrityMonitor.verify_lt_round`) run
before the save so checkpoints only ever hold invariant-clean state; the
restored labels become the next round's monotonicity baseline.

The paper's CC is the ``lt-rf`` point: :func:`~repro.cc.collective.
solve_cc_collective` runs it through :func:`solve_lattice` too, handing
in its own name, iteration bound, integrity hook and the online adapter.
Shiloach–Vishkin (:func:`~repro.cc.sv.solve_cc_sv`) hands in its own
round step as well: :func:`connect_phase` with ``lt-rs``, then star
detection, the stagnant-star hook and one pointer jump.
"""

from __future__ import annotations

import math
import time
from types import SimpleNamespace

import numpy as np

from ..cc.collective import pointer_jump_once, pointer_jump_to_stars
from ..cc.common import graft_proposals
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
from ..runtime.shared_array import id_dtype
from .variants import LTVariant, parse_variant

__all__ = ["solve_cc_lt", "lt_iteration_bound"]


def lt_iteration_bound(n: int) -> int:
    """Safety bound on Liu–Tarjan rounds.

    The lattice's worst members converge in ``O(log^2 n)`` rounds (the
    partial-shortcut variants halve tree depth only once per round), so
    the shared ``O(log n)`` bound of :func:`repro.cc.common.
    iteration_bound` would misfire on deep inputs like paths; we allow a
    generous quadratic multiple before declaring a semantic bug.
    """
    log_n = max(1, math.ceil(math.log2(max(n, 2))))
    return 2 * (log_n + 2) ** 2 + 8


def _connect_proposals(
    variant: LTVariant,
    rt: PGASRuntime,
    u_part: PartitionedArray,
    v_part: PartitionedArray,
    du: np.ndarray,
    dv: np.ndarray,
    ddu: "np.ndarray | None",
    ddv: "np.ndarray | None",
) -> tuple:
    """(targets PartitionedArray, values ndarray) for one connect step.

    All rules are snapshot-based and symmetric in the two directions; a
    proposal always carries the *smaller* side's label, so values are
    strictly below their targets and min-adjudication keeps ``D``
    monotone.
    """
    sizes = u_part.sizes().astype(np.float64)
    if variant.connect == "root":
        # Bader–Cong condition: the larger side's label must be a root.
        step = graft_proposals(du, dv, ddu, ddv)
        rt.local_ops(6.0 * sizes)
        return u_part.take_sorted(step.sel, step.targets), step.values
    cond_uv = du < dv  # lower v's parent (and, extended, v itself)
    cond_vu = dv < du
    mask = cond_uv | cond_vu
    parent_targets = u_part.filter(mask).with_data(np.where(cond_uv, dv, du)[mask])
    parent_values = np.where(cond_uv, du, dv)[mask]
    if variant.connect == "parent":
        rt.local_ops(4.0 * sizes)
        return parent_targets, parent_values
    # Extended-connect: additionally write the smaller label straight to
    # the larger side's endpoint.  One combined SetD keeps the write a
    # single coalesced collective (the extra volume is still charged).
    child_targets = PartitionedArray.concat_pairwise(
        v_part.filter(cond_uv), u_part.filter(cond_vu)
    )
    child_values = PartitionedArray.concat_pairwise(
        u_part.filter(cond_uv).with_data(du[cond_uv]),
        v_part.filter(cond_vu).with_data(dv[cond_vu]),
    )
    targets = PartitionedArray.concat_pairwise(parent_targets, child_targets)
    values = PartitionedArray.concat_pairwise(
        u_part.filter(mask).with_data(parent_values), child_values
    )
    rt.local_ops(6.0 * sizes)
    return targets, values.data


def _verify_lattice(st) -> None:
    st.rt.integrity.verify_lt_round(st.d, prev=st.prev)
    st.prev = st.rt.owner_block_read(st.d)


def _verify_stars(st) -> None:
    """Termination contract: the forest must have collapsed to stars."""
    st.rt.integrity.verify_lt_round(st.d, prev=st.prev, final=True)


def _restored_baseline(st) -> None:
    """The restored round-top state is the new monotonicity baseline."""
    st.prev = st.d.data.copy()


def connect_phase(st) -> int:
    """Compact the live edges, then apply ``st.variant``'s connect rule
    with one min-adjudicated SetD; return the number of labels it moved.

    The compacted partitions and the round's hot value ``st.hot`` (the
    ``offload`` short-circuit's ``0``, else ``None``) are left on ``st``
    for the rest of the round.  Round buffers are bound on ``st`` too, so that each lives
    until the next round replaces it (see run_rounds: heap trimming).
    """
    rt, d, ctx, variant = st.rt, st.d, st.ctx, st.variant
    opts, tprime, sort_method = st.opts, st.tprime, st.sort_method
    u_part, v_part = st.u_part, st.v_part
    # Recomputed per round: the adapter may have flipped `offload`.
    st.hot = hot = 0 if opts.offload else None

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
            ctx.invalidate()
    st.u_part, st.v_part = u_part, v_part
    ddu = ddv = None
    if variant.connect == "root":
        st.ddu = ddu = getd(
            rt, d, u_part.with_data(du), opts, None, None, tprime, sort_method,
            hot_value=hot,
        )
        st.ddv = ddv = getd(
            rt, d, v_part.with_data(dv), opts, None, None, tprime, sort_method,
            hot_value=hot,
        )
    st.targets, st.values = targets, values = _connect_proposals(
        variant, rt, u_part, v_part, du, dv, ddu, ddv
    )
    return setd(
        rt, d, targets, values, opts, ctx=None, cache_key=None,
        tprime=tprime, sort_method=sort_method,
        drop_hot=True, hot_index=0,
    )


def _lattice_round(st) -> bool:
    """One connect / shortcut / alter round; ``True`` once nothing moved."""
    changed = connect_phase(st)
    rt, d, ctx, variant = st.rt, st.d, st.ctx, st.variant
    opts, tprime, sort_method = st.opts, st.tprime, st.sort_method

    # -- shortcut phase -------------------------------------------
    if variant.shortcut == "full":
        moved = pointer_jump_to_stars(rt, d, opts, tprime, sort_method)
    else:
        moved = pointer_jump_once(rt, d, opts, tprime, sort_method)

    # -- alter phase ----------------------------------------------
    if variant.alter:
        fu = getd(rt, d, st.u_part, opts, None, None, tprime, sort_method, hot_value=st.hot)
        fv = getd(rt, d, st.v_part, opts, None, None, tprime, sort_method, hot_value=st.hot)
        st.u_part = st.u_part.with_data(fu)
        st.v_part = st.v_part.with_data(fv)
        # The cached id buffers describe the old request lists.
        ctx.invalidate()

    done = not rt.allreduce_flag(np.full(rt.s, changed + moved > 0))
    if st.adapter is not None and not done:
        new_opts, st.tprime = st.adapter.on_round(opts, tprime)
        if new_opts.compact != opts.compact:
            # compact changes which requests exist; the id cache
            # must not serve buffers for the old request lists.
            ctx.invalidate()
        st.opts = new_opts
    return done


def solve_lattice(
    graph: EdgeList,
    machine: MachineConfig | None,
    opts: OptimizationFlags,
    tprime: int,
    sort_method: str,
    variant: "LTVariant | str",
    *,
    name: str,
    array: str,
    bound: int,
    verify,
    replay=None,
    final=None,
    faults=None,
    adapter=None,
    integrity=None,
    resilience=None,
    step=_lattice_round,
    scratch=None,
) -> CCResult:
    """The solve shell of every lattice point: runtime, label array
    ``array``, edge partitions, then ``step`` (:func:`_lattice_round`
    unless a composition brings its own) under
    :func:`~repro.faults.rounds.run_rounds` with ``name``, ``bound`` and
    the integrity hooks ``verify``/``replay``/``final``.  ``scratch(st)``
    allocates the step's per-run arrays, again on the new runtime after
    a node loss.  ``adapter`` revises ``opts``/``tprime`` after each
    round; profiling is forced on so it has phase records to read."""
    variant = parse_variant(variant)
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
        info = SolveInfo(machine, name, 0.0, time.perf_counter() - wall_start, 0, rt.trace)
        return CCResult(np.empty(0, dtype=np.int64), info)

    ep = distribute_edges(graph, rt.s)
    d = rt.shared_array(np.arange(n, dtype=id_dtype(n)), name=array)
    rt.protect_array(d)
    if rt.resilience is not None:
        rt.resilience.enroll(d)
    # ``prev`` holds the last verified round-top labels: the monotonicity
    # baseline of the next round's invariants.
    st = SimpleNamespace(
        rt=rt, d=d, ctx=CollectiveContext(), u_part=ep.u, v_part=ep.v, prev=None,
        opts=opts, tprime=tprime, sort_method=sort_method, variant=variant, adapter=adapter,
    )
    if scratch is not None:
        scratch(st)
    iterations = run_rounds(
        st, step, name=name, bound=bound, refs=("u_part", "v_part"),
        verify=verify, replay=replay, final=final, rebuild=scratch, adapter=adapter,
    )
    rt = st.rt
    info = SolveInfo(
        rt.machine, name, rt.elapsed, time.perf_counter() - wall_start, iterations, rt.trace
    )
    return CCResult(st.d.data.astype(np.int64), info)


def solve_cc_lt(
    graph: EdgeList,
    machine: MachineConfig | None = None,
    opts: OptimizationFlags = OptimizationFlags.all(),
    tprime: int = 1,
    sort_method: str = "count",
    variant: "LTVariant | str" = "lt-rf",
    faults=None,
    integrity=None,
    resilience=None,
) -> CCResult:
    """Connected components via one Liu–Tarjan lattice variant.

    Produces labels identical to every other CC implementation in this
    package at convergence (each component labeled by its minimum vertex
    id).  ``faults``, ``integrity``, and ``resilience`` behave exactly
    as in :func:`~repro.cc.collective.solve_cc_collective`: every
    variant runs its rounds under :func:`~repro.faults.rounds.run_rounds`.
    """
    variant = parse_variant(variant)
    return solve_lattice(
        graph, machine, opts, tprime, sort_method, variant,
        name=f"cc-{variant.name}", array=f"lt.{variant.name}.d",
        bound=lt_iteration_bound(graph.n),
        verify=_verify_lattice, replay=_restored_baseline, final=_verify_stars,
        faults=faults, integrity=integrity, resilience=resilience,
    )
