"""CC rewritten with the GetD/SetD collectives (paper Sections IV-V).

The grafting reads and writes become coalesced collectives, and the
asynchronous shortcut is replaced by *synchronous* lock-step pointer
jumping — "We insert artificial synchronizations into pointer-jumping ...
the modification makes communication coalescing possible."  After the
rewrite, all remote accesses occur inside ``O(log^2 n)`` collective
calls, each incurring at most one message per thread pair.

That round is the Liu–Tarjan lattice's ``lt-rf`` point (root-connect is
Bader–Cong grafting), so :func:`solve_cc_collective` runs the lattice's
round and shell (:mod:`repro.lt.solver`) with CC's own invariants,
iteration bound and online adapter; this module keeps the pointer
jumping the lattice and MST Borůvka share.

All Section V optimizations are honored via :class:`OptimizationFlags`:
``compact`` filters settled edges at the top of each iteration (before
the expensive root-check collectives), ``offload`` short-circuits
requests for the constant ``D[0]``, ``circular``/``localcpy``/``ids``/
``rdma`` act inside the collectives, and ``tprime`` adds the in-node
virtual-thread recursion level of Algorithm 1.
"""

from __future__ import annotations

import numpy as np

from ..collectives.getd import getd
from ..core.optimizations import OptimizationFlags
from ..core.results import CCResult
from ..graph.edgelist import EdgeList
from ..runtime.machine import MachineConfig
from ..runtime.partitioned import PartitionedArray
from ..runtime.runtime import PGASRuntime
from .common import check_converged, iteration_bound

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
    """Connected components via GetD/SetD collectives: the ``lt-rf``
    round, checked by :meth:`~repro.integrity.monitor.IntegrityMonitor.
    verify_cc_round` under integrity.

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
    # repro.lt builds on this module's pointer jumping, so it imports late.
    from ..lt.solver import solve_lattice

    return solve_lattice(
        graph, machine, opts, tprime, sort_method, "lt-rf",
        name="cc-collective", array="cc.d", bound=iteration_bound(graph.n),
        verify=_verify_grafting, faults=faults, adapter=adapter,
        integrity=integrity, resilience=resilience,
    )
