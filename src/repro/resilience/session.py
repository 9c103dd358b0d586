"""Owner-block redundancy and membership-epoch recovery.

The paper's PGAS model assumes the thread set is fixed for the life of
the solve; :mod:`repro.faults` already absorbs *transient* crashes and
silent corruption through round checkpoints, but a node that dies for
good would stall every barrier forever.  This module adds the missing
rung: keep the answer flowing when a node is permanently gone.

Three pieces compose (see ``docs/fault-model.md`` for the protocol):

* **Redundancy** (:class:`RedundancyConfig`).  Enrolled shared arrays
  keep an off-node copy of their *committed* (round-top) state — either
  a full **buddy** replica (node ``i``'s blocks mirrored on node
  ``(i+1) mod p``) or an XOR **parity** block per group of nodes (RAID-5
  capacity, the parity block itself mirrored inside the group so no
  single loss destroys both a data slice and its only parity).  Replica
  maintenance is *incremental*: the runtime's charged owner-write
  helpers mark dirty elements, and :meth:`ResilientSession.commit_round`
  ships only the dirty deltas — real communication, charged through the
  cost model like any SetD payload.
* **Membership epochs**.  A :class:`~repro.faults.NodeLossEvent` fires
  at a synchronization point; survivors time the silence out, agree the
  loss is permanent (one agreement round on the ``Fault`` clock), and
  :meth:`ResilientSession.on_loss` scrambles the dead node's owner
  blocks (the simulation's one address space would otherwise keep the
  vanished data readable) before raising
  :class:`~repro.errors.NodeLoss` into the solver's recovery scope.
* **Recovery** (:meth:`ResilientSession.recover_loss`).  A new epoch is
  opened, the dead node's owner blocks are reconstructed from the
  buddy replica or the group parity (never from the dead data), block
  ownership is remapped onto the survivors (**shrink**) or a cold
  **spare**, the edge partitions are re-fetched/re-partitioned, fresh
  integrity digests are synced, the fault plan's unfired events are
  remapped onto the new membership, and the solver replays from the
  last round checkpoint under the new layout.

Runs without a session fail loudly: the runtime raises
:class:`~repro.errors.UnrecoverableLossError` the moment an unprotected
loss fires — never a hang, never a silently-wrong forest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..errors import ConfigError, NodeLoss, UnrecoverableLossError
from ..faults.checkpoint import RoundCheckpointer
from ..faults.plan import CrashEvent, FaultPlan, NicDegradation, NodeLossEvent
from ..runtime.partitioned import PartitionedArray, even_offsets
from ..runtime.trace import Category

__all__ = ["RedundancyConfig", "ResilientSession", "RecoveredRun"]


@dataclass(frozen=True)
class RedundancyConfig:
    """How enrolled owner blocks are kept recoverable.

    ``mode``
        ``"buddy"`` — full replica of each node's committed blocks on
        the next node (memory overhead 1x, cheapest reconstruction);
        ``"parity"`` — one XOR parity block per ``group`` consecutive
        nodes (memory overhead ``1/group``, reconstruction must fetch
        every surviving group member).
    ``group``
        Parity-group width in nodes (parity mode; clamped to >= 2, and
        a trailing undersized group is merged into its neighbor).
    ``spares``
        Cold spare nodes standing by.  While spares remain, a lost
        node's slot is re-populated instead of shrinking the machine.
    """

    mode: str = "buddy"
    group: int = 4
    spares: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("buddy", "parity"):
            raise ConfigError(f"redundancy mode must be 'buddy' or 'parity', got {self.mode!r}")
        if self.group < 2:
            raise ConfigError(f"parity group width must be >= 2, got {self.group}")
        if self.spares < 0:
            raise ConfigError(f"spare count must be >= 0, got {self.spares}")


@dataclass
class RecoveredRun:
    """What :meth:`ResilientSession.recover_loss` hands back to the
    solver: the post-loss runtime, the rebuilt shared arrays (keyed by
    their names), the restored round-top state with every
    :class:`~repro.runtime.partitioned.PartitionedArray` re-partitioned
    onto the new membership, and a fresh checkpointer bound to the new
    runtime."""

    rt: Any
    arrays: Dict[str, Any]
    state: Dict[str, Any]
    ck: RoundCheckpointer


class _Enrolled:
    """Per-array redundancy state."""

    __slots__ = ("name", "arr", "corruptible", "committed", "dirty", "parity", "slices")

    def __init__(self, name, arr, corruptible, committed, dirty) -> None:
        self.name = name
        self.arr = arr
        self.corruptible = corruptible
        self.committed = committed
        self.dirty = dirty
        self.parity: "Dict[int, np.ndarray] | None" = None
        self.slices: List[tuple] = []


def _node_slices(arr) -> List[tuple]:
    """Contiguous half-open index range owned by each node (the blocked
    layout keeps a node's threads' blocks adjacent)."""
    m = arr.machine
    tpn = m.threads_per_node
    out = []
    for node in range(m.nodes):
        lo, _ = arr.local_range(node * tpn)
        _, hi = arr.local_range(min((node + 1) * tpn, m.total_threads) - 1)
        out.append((lo, max(hi, lo)))
    return out


def _remap_plan(inj, dead: int, mode: str) -> "FaultPlan | None":
    """The old plan's *unfired* events translated onto the new
    membership.  Shrink: the dead node's entries vanish and everything
    above shifts down; spare: node ids keep their meaning but entries
    naming the dead slot are dropped (the spare is fresh hardware)."""
    if inj is None:
        return None
    plan = inj.plan
    tpn = inj.machine.threads_per_node

    if mode == "spare":
        def node_map(k: int) -> Optional[int]:
            return None if k == dead else k
    else:
        def node_map(k: int) -> Optional[int]:
            return None if k == dead else (k - 1 if k > dead else k)

    def thread_map(t: int) -> Optional[int]:
        nk = node_map(t // tpn)
        return None if nk is None else nk * tpn + (t % tpn)

    link_loss = {
        node_map(k): p for k, p in plan.link_loss.items() if node_map(k) is not None
    }
    stragglers = {
        thread_map(t): f for t, f in plan.stragglers.items() if thread_map(t) is not None
    }
    degradations = tuple(
        NicDegradation(node_map(w.node), w.start, w.end, w.factor)
        for w in plan.nic_degradations
        if node_map(w.node) is not None
    )
    crashes = tuple(
        CrashEvent(thread_map(e.thread), e.at_time, e.recovery)
        for e in inj.unfired_crashes
        if thread_map(e.thread) is not None
    )
    losses = tuple(
        NodeLossEvent(node_map(e.node), e.at_time)
        for e in inj.unfired_node_losses
        if node_map(e.node) is not None
    )
    return FaultPlan(
        seed=plan.seed,
        loss=plan.loss,
        link_loss=link_loss,
        stragglers=stragglers,
        nic_degradations=degradations,
        crashes=crashes,
        node_losses=losses,
        corruption=plan.corruption,
        payload_corruption=plan.payload_corruption,
        retry=plan.retry,
    )


class ResilientSession:
    """Per-run redundancy store and membership-epoch state machine.

    Construct one per run (the runtime does this when handed a
    :class:`RedundancyConfig`); solvers opt their mutable shared arrays
    in through :meth:`enroll` and commit each round top with
    :meth:`commit_round`.  The session survives recovery — it rebinds to
    the rebuilt runtime and re-replicates onto the new membership.
    """

    def __init__(self, config: RedundancyConfig, rt) -> None:
        self.config = config
        self.rt = rt
        self.epoch = 0
        self.spares_left = int(config.spares)
        self._enrolled: Dict[int, _Enrolled] = {}
        self._order: List[_Enrolled] = []

    # -- parity geometry -----------------------------------------------------

    def _gid(self, node: int, nodes: int) -> int:
        width = max(2, self.config.group)
        ngroups = max(1, nodes // width)
        return min(node // width, ngroups - 1)

    def _group_members(self, gid: int, nodes: int) -> List[int]:
        return [k for k in range(nodes) if self._gid(k, nodes) == gid]

    # -- replica traffic accounting ------------------------------------------

    def _charge_replication(self, counts: np.ndarray, bytes_per: int, parity: bool) -> None:
        """Ship ``counts`` committed elements per thread to the replica
        (or parity) owner: real NIC traffic, charged like any SetD
        payload; parity mode additionally pays the XOR fold."""
        rt = self.rt
        nbytes = counts * float(bytes_per)
        rt.charge_comm(rt.cost.remote_message_time(nbytes))
        if parity:
            rt.charge(Category.FAULT, rt.cost.op_time(counts))
        rt.counters.add(
            remote_messages=int(np.count_nonzero(counts)),
            remote_bytes=int(nbytes.sum()),
        )

    # -- enrollment ----------------------------------------------------------

    def enroll(self, arr, corruptible: bool = True):
        """Start keeping ``arr``'s owner blocks recoverable (charged
        initial full replication); idempotent per array.  Enrolled
        arrays must be named — recovery rebuilds them by name."""
        if id(arr) in self._enrolled:
            return arr
        if not arr.name:
            raise ConfigError("resilience-enrolled shared arrays must be named")
        rec = _Enrolled(
            name=arr.name,
            arr=arr,
            corruptible=corruptible,
            committed=arr.data.copy(),
            dirty=np.zeros(arr.size, dtype=bool),
        )
        rec.slices = _node_slices(arr)
        parity = self.config.mode == "parity"
        if parity:
            self._build_parity(rec)
        self._enrolled[id(arr)] = rec
        self._order.append(rec)
        self._charge_replication(
            arr.local_sizes().astype(np.float64), arr.nbytes_per_elem, parity
        )
        self.rt.counters.add(replicas_written=arr.size)
        return arr

    def _build_parity(self, rec: _Enrolled) -> None:
        nodes = rec.arr.machine.nodes
        parity: Dict[int, np.ndarray] = {}
        for node, (lo, hi) in enumerate(rec.slices):
            seg = rec.committed[lo:hi].astype(np.int64)
            gid = self._gid(node, nodes)
            buf = parity.get(gid)
            if buf is None:
                parity[gid] = seg.copy()
            else:
                if buf.shape[0] < seg.shape[0]:
                    grown = np.zeros(seg.shape[0], dtype=np.int64)
                    grown[: buf.shape[0]] = buf
                    parity[gid] = buf = grown
                buf[: seg.shape[0]] ^= seg
        rec.parity = parity

    # -- incremental maintenance ---------------------------------------------

    def mark_write(self, arr, indices=None) -> None:
        """Record a legitimate charged write for the next commit; pure
        bookkeeping (the replica traffic is charged when
        :meth:`commit_round` ships the deltas).  ``indices`` may be
        explicit positions, a boolean mask, or ``None`` for a
        full-block overwrite."""
        rec = self._enrolled.get(id(arr))
        if rec is None:
            return
        if indices is None:
            rec.dirty[:] = True
            return
        idx = np.asarray(indices)
        if idx.dtype == np.bool_:
            rec.dirty |= idx
        elif idx.size:
            rec.dirty[idx] = True

    def commit_round(self) -> None:
        """Ship every enrolled array's dirty elements to its replica or
        parity owner, advancing the committed (recoverable) state to the
        current round top.  Call right after the round checkpoint save,
        so committed state and checkpoint state describe the same
        round."""
        rt = self.rt
        parity_mode = self.config.mode == "parity"
        for rec in self._order:
            idx = np.flatnonzero(rec.dirty)
            if idx.size == 0:
                continue
            arr = rec.arr
            if parity_mode:
                delta = rec.committed[idx].astype(np.int64) ^ arr.data[idx].astype(np.int64)  # repro: charged-local
                nodes = arr.machine.nodes
                for node, (lo, hi) in enumerate(rec.slices):
                    sel = (idx >= lo) & (idx < hi)
                    if not sel.any():
                        continue
                    buf = rec.parity[self._gid(node, nodes)]
                    buf[idx[sel] - lo] ^= delta[sel]
            rec.committed[idx] = arr.data[idx]  # repro: charged-local
            rec.dirty[:] = False
            counts = np.bincount(arr.owner_thread(idx), minlength=rt.s).astype(np.float64)
            self._charge_replication(counts, arr.nbytes_per_elem, parity_mode)
            rt.counters.add(replicas_written=int(idx.size))

    # -- loss detection ------------------------------------------------------

    def on_loss(self, event) -> None:
        """React to a fired :class:`~repro.faults.NodeLossEvent`: charge
        the survivors' detection timeout and epoch agreement, destroy
        the dead node's owner blocks (and, in parity mode, its local
        committed shadow — both died with the hardware), and raise
        :class:`~repro.errors.NodeLoss` into the solver's recovery
        scope.  Raises :class:`~repro.errors.UnrecoverableLossError`
        instead when no recovery is possible."""
        rt = self.rt
        if rt.machine.nodes <= 1:
            raise UnrecoverableLossError(
                event.node, event.at_time, "a single-node machine has no survivors"
            )
        if not self._order:
            raise UnrecoverableLossError(
                event.node,
                event.at_time,
                "no shared arrays are enrolled for redundancy",
            )
        # Survivors wait the retry timeout out on the failed collective,
        # then run one agreement round to open the new epoch.
        rt.charge(Category.FAULT, np.full(rt.s, rt.faults.retry.timeout))
        rt.charge(Category.FAULT, rt.cost.allreduce_time())
        rt.clocks.barrier(0.0)
        # The one-address-space simulation would happily keep serving the
        # dead node's data; scramble it so recovery provably rebuilds
        # from the replicas/parity, never from vanished memory.
        rng = np.random.default_rng(
            np.random.SeedSequence(rt.faults.plan.seed, spawn_key=(2, self.epoch))
        )
        for rec in self._order:
            lo, hi = rec.slices[event.node]
            if hi <= lo:
                continue
            hi_dom = max(int(rec.arr.size), 2)
            rec.arr.data[lo:hi] = rng.integers(0, hi_dom, size=hi - lo)
            if self.config.mode == "parity":
                # Parity keeps the committed shadow node-local; the dead
                # node's shadow is gone too (buddy keeps it off-node).
                rec.committed[lo:hi] = rng.integers(0, hi_dom, size=hi - lo)
        raise NodeLoss(event.node, event.at_time)

    # -- recovery ------------------------------------------------------------

    def recover_loss(self, loss, ck: RoundCheckpointer, adapter=None) -> RecoveredRun:
        """Rebuild the run on the post-loss membership and return the
        pieces the solver rebinds before replaying the round.

        Opens a new epoch; reconstructs the dead node's committed owner
        blocks (buddy: fetch the replica; parity: XOR the group parity
        with every surviving member's committed slice); restores the
        round checkpoint and overwrites the dead shards with the
        reconstruction; remaps onto the survivors (shrink) or a cold
        spare; re-partitions every PartitionedArray in the restored
        state; rebuilds and re-protects the enrolled shared arrays on a
        fresh runtime (carrying clocks, trace, integrity config, and
        the fault plan's unfired events); and re-replicates onto the
        new membership.  Notifies ``adapter`` so tuning re-plans for
        the new machine.
        """
        old_rt = self.rt
        old_machine = old_rt.machine
        dead = int(loss.node)
        tpn = old_machine.threads_per_node
        self.epoch += 1
        old_rt.counters.add(epoch_changes=1)

        alive = np.ones(old_rt.s, dtype=bool)
        alive[dead * tpn : (dead + 1) * tpn] = False
        nalive = max(int(alive.sum()), 1)

        # Reconstruct each enrolled array's dead slice into `committed`
        # from the redundancy store — never from the (scrambled) dead
        # data.  Buddy: one replica fetch; parity: fetch every surviving
        # group member's committed slice and XOR with the group parity.
        recon_bytes = 0.0
        xor_elems = 0.0
        for rec in self._order:
            lo, hi = rec.slices[dead]
            span = hi - lo
            if span > 0:
                if self.config.mode == "parity":
                    gid = self._gid(dead, old_machine.nodes)
                    buf = rec.parity[gid].copy()
                    for member in self._group_members(gid, old_machine.nodes):
                        if member == dead:
                            continue
                        mlo, mhi = rec.slices[member]
                        seg = rec.committed[mlo:mhi].astype(np.int64)
                        buf[: mhi - mlo] ^= seg
                        recon_bytes += (mhi - mlo) * rec.arr.nbytes_per_elem
                        xor_elems += mhi - mlo
                    rec.committed[lo:hi] = buf[:span].astype(rec.committed.dtype)
                else:
                    recon_bytes += span * rec.arr.nbytes_per_elem
            old_rt.counters.add(blocks_reconstructed=tpn)
        fetch = np.zeros(old_rt.s, dtype=np.float64)
        fetch[alive] = recon_bytes / nalive
        old_rt.charge_comm(old_rt.cost.remote_message_time(fetch))
        if xor_elems:
            ops = np.zeros(old_rt.s, dtype=np.float64)
            ops[alive] = xor_elems / nalive
            old_rt.charge(Category.FAULT, old_rt.cost.op_time(ops))

        # Replay state: survivors' shards from the checkpoint, the dead
        # node's shards from the reconstruction (the checkpoint's dead
        # shards died with the node and are overwritten unconditionally).
        state = ck.restore()
        for rec in self._order:
            if rec.name in state:
                payload = np.asarray(state[rec.name])
                lo, hi = rec.slices[dead]
                payload[lo:hi] = rec.committed[lo:hi]
                state[rec.name] = payload

        # New membership: adopt a cold spare while any remain, else
        # shrink to the survivors.
        if self.spares_left > 0:
            self.spares_left -= 1
            mode = "spare"
            new_machine = old_machine
        else:
            mode = "shrink"
            new_machine = old_machine.with_(nodes=old_machine.nodes - 1)

        from ..runtime.runtime import PGASRuntime

        new_plan = _remap_plan(old_rt.faults, dead, mode)
        integ_cfg = old_rt.integrity.config if old_rt.integrity is not None else None
        new_rt = PGASRuntime(
            new_machine,
            profile=old_rt.profiler is not None,
            faults=new_plan,
            integrity=integ_cfg,
            resilience=self,
        )
        new_rt.clocks.times[:] = old_rt.clocks.elapsed
        new_rt.trace.merge(old_rt.trace)
        new_rt.trace.record_event(
            f"resilience: epoch {self.epoch} opened ({mode}) after losing node {dead}"
        )

        # Rebuild the enrolled arrays on the new runtime and start a
        # fresh redundancy store for the new layout (full charged
        # re-replication — survivors cannot stay one loss from ruin).
        old_order = self._order
        self._enrolled = {}
        self._order = []
        arrays: Dict[str, Any] = {}
        for rec in old_order:
            payload = state.get(rec.name)
            if payload is None:
                payload = rec.committed
            arr = new_rt.shared_array(np.asarray(payload).copy(), name=rec.name)
            new_rt.protect_array(arr, corruptible=rec.corruptible)
            self.enroll(arr, corruptible=rec.corruptible)
            arrays[rec.name] = arr

        # The edge partitions are re-fetchable input segments: the new
        # owners of the dead node's share re-read it (one NIC transfer
        # plus a streamed pass), and every partition is re-balanced onto
        # the new thread count.
        refetch_elems = 0.0
        refetch_bytes = 0.0
        for key, value in list(state.items()):
            if isinstance(value, PartitionedArray):
                sizes = value.sizes()
                dead_elems = float(sizes[dead * tpn : (dead + 1) * tpn].sum())
                refetch_elems += dead_elems
                refetch_bytes += dead_elems * value.data.dtype.itemsize
                state[key] = PartitionedArray(
                    value.data, even_offsets(value.total, new_rt.s)
                )
        if refetch_elems:
            per_bytes = np.full(new_rt.s, refetch_bytes / new_rt.s)
            new_rt.charge_comm(new_rt.cost.remote_message_time(per_bytes))
            new_rt.charge(
                Category.FAULT,
                new_rt.cost.seq_access_time(np.full(new_rt.s, refetch_elems / new_rt.s)),
            )

        new_ck = RoundCheckpointer(new_rt, enabled=ck.enabled)
        if adapter is not None:
            adapter.on_membership_change(new_rt)
        return RecoveredRun(rt=new_rt, arrays=arrays, state=state, ck=new_ck)
