"""The round driver: checkpoint, verify, repair and recover, written once.

Every checkpointing solver — CC grafting, the Liu–Tarjan lattice, MST
Borůvka — runs the same lock-step round, and the round is the unit of
recovery: a crash or a detected corruption restores the round-top
checkpoint and replays the round; a permanent node loss rebuilds the run
on the surviving membership and replays it there.  :func:`run_rounds`
owns that loop; a solver brings its setup, a per-round ``step`` and a
few hooks.  Steps and hooks are module-level functions, never closures:
the flow verifier (:mod:`repro.analysis.flow`) only analyses those.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional, Sequence

from ..errors import ConvergenceError, FaultError, IntegrityError, NodeLoss, ThreadCrash
from .checkpoint import RoundCheckpointer

__all__ = ["run_rounds"]

Hook = Callable[[Any], None]


def run_rounds(
    st: Any,
    step: Callable[[Any], bool],
    *,
    name: str,
    bound: int,
    refs: Sequence[str],
    verify: Optional[Hook] = None,
    replay: Optional[Hook] = None,
    final: Optional[Hook] = None,
    rebuild: Optional[Hook] = None,
    adapter=None,
) -> int:
    """Run ``step(st)`` until it returns ``True``; return the round count.

    ``st`` holds the solve's mutable state: the runtime ``rt``, the label
    array ``d`` (copied into every checkpoint), a collective context
    ``ctx``, and the attributes named in ``refs``, checkpointed by
    reference (values the step rebinds but never mutates).  A round is
    ``verify(st)`` (under integrity protection only, before the save, so
    a checkpoint only ever holds invariant-clean state), the save, the
    redundancy commit, then ``step(st)``; under integrity, ``final(st)``
    checks the last round's result before it is returned, so a failure
    there is repaired like any other.  After a node loss ``st.rt``
    and ``st.d`` move to the new runtime and ``rebuild(st)`` re-allocates
    per-round scratch there; after any fault the checkpointed state is
    rebound, ``ctx``'s id cache is dropped, ``replay(st)`` runs, and the
    round is replayed.  ``adapter`` is attached to the runtime here and
    re-planned on a membership change.

    A step binds its large per-round buffers on ``st`` as it creates
    them, so each one lives until the next round replaces it, as a loop
    local would.  Freeing them all when the step returns lets malloc
    trim the heap, and the next round page-faults it back in: 8x the
    page faults and +35% CPU time on a 28k-vertex, 280k-edge MST solve
    at 16x8 (glibc, x86_64).

    Raises :class:`~repro.errors.ConvergenceError` past ``bound`` rounds
    and a :class:`~repro.errors.FaultError` naming ``name`` once integrity
    repairs exceed ``8 * (4 + ceil(log2 n))``.
    """
    rt = st.rt
    if adapter is not None:
        adapter.begin(rt)
    n = st.d.size
    # Verify-and-repair needs the checkpoint even with a crash-free plan,
    # and loss recovery replays from it under the new membership.
    ck = RoundCheckpointer(
        rt,
        enabled=True if (rt.integrity is not None or rt.resilience is not None) else None,
    )
    repairs = 0
    repair_bound = 8 * (4 + math.ceil(math.log2(max(n, 2))))
    iteration = 0
    while True:
        iteration += 1
        if iteration > bound:
            raise ConvergenceError(
                f"{name} exceeded the {bound}-iteration safety bound for n={n};"
                " this indicates a semantic bug, not a slow input"
            )
        try:
            if verify is not None and rt.integrity is not None:
                verify(st)
            ck.save(arrays={st.d.name: st.d.data}, **{key: getattr(st, key) for key in refs})
            if rt.resilience is not None:
                # Committed (recoverable) state advances with the save,
                # shipping only the dirty deltas to the replica owners.
                rt.resilience.commit_round()
            rt.counters.add(iterations=1)
            if step(st):
                if final is not None and rt.integrity is not None:
                    final(st)
                return iteration
            continue
        except NodeLoss as loss:
            # Reconstruct the dead node's blocks from redundancy and remap
            # onto the survivors (or a spare).
            recovered = rt.resilience.recover_loss(loss, ck, adapter=adapter)
            rt, ck = recovered.rt, recovered.ck
            st.rt, st.d = rt, recovered.arrays[st.d.name]
            restored = recovered.state
            if rebuild is not None:
                rebuild(st)
        except (ThreadCrash, IntegrityError) as fault:
            restored = ck.restore()
            # repro: waive[CM01] checkpoint restore; RoundCheckpointer charges the pass
            st.d.data[:] = restored[st.d.name]
            if rt.integrity is not None:
                rt.integrity.resync(st.d)
            if isinstance(fault, IntegrityError):
                rt.counters.add(repairs=1)
                repairs += 1
                if repairs > repair_bound:
                    raise FaultError(
                        f"{name} gave up after {repairs} integrity repairs"
                        " (corruption rate exceeds what replay can absorb)"
                    ) from fault
        # Only a fault reaches this point: replay the round it lost.
        for key in refs:
            setattr(st, key, restored[key])
        st.ctx.invalidate()
        if replay is not None:
            replay(st)
        iteration -= 1
