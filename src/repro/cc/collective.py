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

import numpy as np

from ..collectives.base import CollectiveContext
from ..collectives.getd import getd
from ..collectives.setd import setd
from ..core.optimizations import OptimizationFlags
from ..core.results import CCResult, SolveInfo
from ..errors import FaultError, IntegrityError, NodeLoss, ThreadCrash
from ..faults.checkpoint import RoundCheckpointer
from ..graph.distribute import distribute_edges
from ..graph.edgelist import EdgeList
from ..runtime.machine import MachineConfig, hps_cluster
from ..runtime.partitioned import PartitionedArray
from ..runtime.runtime import PGASRuntime
from .common import check_converged, graft_proposals

__all__ = ["solve_cc_collective", "pointer_jump_to_stars"]


def _local_label_offsets(d) -> np.ndarray:
    sizes = d.local_sizes()
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def pointer_jump_to_stars(
    rt: PGASRuntime,
    d,
    opts: OptimizationFlags,
    tprime: int,
    sort_method: str,
    vert_offsets: np.ndarray,
) -> int:
    """Synchronous pointer jumping until every tree is a rooted star.

    Each round: every thread streams its local labels, collectively
    fetches the grandparents, and overwrites its block; a flag allreduce
    decides whether another round is needed.  Returns the round count.
    """
    n = d.size
    rounds = 0
    hot = 0 if opts.offload else None
    # One partition of the label array per call; every round's request
    # buffer is a sibling that shares its layout (thread ids, sizes).
    verts = PartitionedArray(d.data, vert_offsets)
    while True:
        rounds += 1
        check_converged(rounds, n, "collective pointer jumping")
        idxp = verts.with_data(rt.owner_block_read(d))
        grand = getd(
            rt, d, idxp, opts, ctx=None, cache_key=None,
            tprime=tprime, sort_method=sort_method, hot_value=hot,
        )
        moved_per_thread = verts.segment_counts_where(grand != d.data)
        rt.owner_block_write(d, grand)
        if not rt.allreduce_flag(moved_per_thread > 0):
            return rounds


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

    ``faults`` accepts a :class:`~repro.faults.FaultPlan`.  When the plan
    schedules crashes, each grafting round checkpoints the label array
    and the live edge partitions; an injected crash restores the last
    checkpoint and replays only the lost round.

    ``integrity`` accepts an :class:`~repro.integrity.IntegrityConfig`
    (or ``True`` for the full defense): the label array is checksummed
    and invariant-verified, collective payloads are end-to-end checked,
    and detected silent corruption is repaired by restoring the round
    checkpoint and replaying — see ``docs/fault-model.md``.

    ``adapter`` accepts a :class:`~repro.tuning.OnlineAdapter`: after
    each grafting round it digests the round's phase records and may
    revise ``opts``/``tprime`` for the next round (performance knobs
    only — labels are identical with or without it).  Profiling is
    forced on so the adapter has phase records to read.

    ``resilience`` accepts a :class:`~repro.resilience.RedundancyConfig`
    (or ``True``): the label array then keeps a charged off-node replica
    (buddy) or parity block of its round-top state, and a permanent
    :class:`~repro.faults.NodeLossEvent` triggers epoch recovery — the
    dead node's blocks are reconstructed, ownership is remapped onto the
    survivors (or a cold spare), and the lost round replays under the
    new membership.  Without it a permanent loss raises
    :class:`~repro.errors.UnrecoverableLossError`.
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
    if adapter is not None:
        adapter.begin(rt)
    n = graph.n
    if n == 0:
        info = SolveInfo(machine, "cc-collective", 0.0, time.perf_counter() - wall_start, 0, rt.trace)
        return CCResult(np.empty(0, dtype=np.int64), info)

    ep = distribute_edges(graph, rt.s)
    u_part, v_part = ep.u, ep.v
    d = rt.shared_array(np.arange(n, dtype=np.int64), name="cc.d")
    rt.protect_array(d)
    if rt.resilience is not None:
        rt.resilience.enroll(d)
    vert_offsets = _local_label_offsets(d)
    ctx = CollectiveContext()

    # Verify-and-repair needs the checkpoint even with a crash-free plan,
    # and loss recovery replays from it under the new membership.
    ck = RoundCheckpointer(
        rt,
        enabled=True if (rt.integrity is not None or rt.resilience is not None) else None,
    )
    repairs = 0
    repair_bound = 8 * (4 + int(np.ceil(np.log2(max(n, 2)))))
    iteration = 0
    while True:
        iteration += 1
        # Recomputed per round: the adapter may have flipped `offload`.
        hot = 0 if opts.offload else None
        check_converged(iteration, n, "cc-collective grafting")
        try:
            # Round-top invariants run BEFORE the save so the checkpoint
            # only ever holds invariant-clean state to restore into.
            if rt.integrity is not None:
                rt.integrity.verify_cc_round(d)
            ck.save(arrays={d.name: d.data}, u_part=u_part, v_part=v_part)
            if rt.resilience is not None:
                # Committed (recoverable) state advances with the save,
                # shipping only the dirty deltas to the replica owners.
                rt.resilience.commit_round()
            rt.counters.add(iterations=1)

            du = getd(rt, d, u_part, opts, ctx, "edges.u", tprime, sort_method, hot_value=hot)
            dv = getd(rt, d, v_part, opts, ctx, "edges.v", tprime, sort_method, hot_value=hot)

            if opts.compact:
                keep = du != dv
                rt.local_ops(u_part.sizes().astype(np.float64))
                if not keep.all():
                    # One selection serves all four payloads of the mask.
                    sel = np.flatnonzero(keep)
                    u_part = u_part.take_sorted(sel)
                    v_part = u_part.with_data(v_part.data.take(sel))
                    du, dv = du.take(sel), dv.take(sel)
                    ctx.invalidate()

            ddu = getd(
                rt, d, u_part.with_data(du), opts, None, None, tprime, sort_method, hot_value=hot
            )
            ddv = getd(
                rt, d, v_part.with_data(dv), opts, None, None, tprime, sort_method, hot_value=hot
            )
            rt.local_ops(6.0 * u_part.sizes().astype(np.float64))

            step = graft_proposals(du, dv, ddu, ddv)
            targets = u_part.take_sorted(step.sel).with_data(step.targets)
            changed = setd(
                rt, d, targets, step.values, opts, ctx=None, cache_key=None,
                tprime=tprime, sort_method=sort_method,
                drop_hot=True, hot_index=0,
            )
            pointer_jump_to_stars(rt, d, opts, tprime, sort_method, vert_offsets)

            changed_flags = np.full(rt.s, changed > 0)
            done = not rt.allreduce_flag(changed_flags)
            if adapter is not None and not done:
                new_opts, tprime = adapter.on_round(opts, tprime)
                if new_opts.compact != opts.compact:
                    # compact changes which requests exist; the id cache
                    # must not serve buffers for the old request lists.
                    ctx.invalidate()
                opts = new_opts
        except NodeLoss as loss:
            # Permanent membership change: reconstruct the dead node's
            # blocks from redundancy, remap onto the survivors (or a
            # spare), and replay the lost round on the new runtime.
            recovered = rt.resilience.recover_loss(loss, ck, adapter=adapter)
            rt, machine, ck = recovered.rt, recovered.machine, recovered.ck
            d = recovered.arrays[d.name]
            u_part, v_part = recovered.state["u_part"], recovered.state["v_part"]
            vert_offsets = _local_label_offsets(d)
            ctx = CollectiveContext()
            iteration -= 1
            continue
        except (ThreadCrash, IntegrityError) as fault:
            state = ck.restore()
            # repro: waive[CM01] checkpoint restore; RoundCheckpointer charges the pass
            d.data[:] = state[d.name]
            u_part, v_part = state["u_part"], state["v_part"]
            if rt.integrity is not None:
                rt.integrity.resync(d)
            if isinstance(fault, IntegrityError):
                rt.counters.add(repairs=1)
                repairs += 1
                if repairs > repair_bound:
                    raise FaultError(
                        f"cc-collective gave up after {repairs} integrity repairs"
                        " (corruption rate exceeds what replay can absorb)"
                    ) from fault
            ctx.invalidate()
            iteration -= 1
            continue
        if done:
            break

    labels = d.data.copy()
    info = SolveInfo(
        machine, "cc-collective", rt.elapsed, time.perf_counter() - wall_start, iteration, rt.trace
    )
    return CCResult(labels, info)
