"""Deterministic fault injection against a :class:`FaultPlan`.

The injector owns the plan's seeded ``numpy`` Generator and answers the
runtime's questions — "how many of these messages needed retransmits?",
"how slow is this thread?", "did anyone crash yet?" — as pure functions
of the plan, the seed, and the (deterministic) order of queries.  It
never reads wall-clock time, so a run's modeled times are byte-identical
across repetitions.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..errors import ConfigError
from ..runtime.machine import MachineConfig
from .plan import CrashEvent, FaultPlan, NodeLossEvent

__all__ = ["FaultInjector"]


class FaultInjector:
    """Stateful per-run interpreter of a :class:`FaultPlan`.

    One injector serves one run: it holds the RNG stream and the not-yet-
    fired crash events.  Construct a fresh one per solve (the runtime
    does this when handed a plan) so identical plans give identical runs.
    """

    def __init__(self, plan: FaultPlan, machine: MachineConfig) -> None:
        self.plan = plan
        self.machine = machine
        self.retry = plan.retry
        self.s = machine.total_threads
        self.rng = np.random.default_rng(plan.seed)
        # Corruption draws come from a dedicated spawned stream so adding
        # silent faults to a plan never perturbs the loss/retry draws of
        # the existing fault classes (and vice versa).
        self._corrupt_rng = np.random.default_rng(
            np.random.SeedSequence(plan.seed, spawn_key=(1,))
        )
        self.node_of = np.arange(self.s, dtype=np.int64) // machine.threads_per_node

        for node in plan.link_loss:
            if not 0 <= node < machine.nodes:
                raise ConfigError(f"link_loss node {node} out of range [0, {machine.nodes})")
        for window in plan.nic_degradations:
            if window.node >= machine.nodes:
                raise ConfigError(
                    f"degradation node {window.node} out of range [0, {machine.nodes})"
                )
        for thread in plan.stragglers:
            if thread >= self.s:
                raise ConfigError(f"straggler thread {thread} out of range [0, {self.s})")
        for event in plan.crashes:
            if event.thread >= self.s:
                raise ConfigError(f"crash thread {event.thread} out of range [0, {self.s})")
        for loss_event in plan.node_losses:
            if loss_event.node >= machine.nodes:
                raise ConfigError(
                    f"lost node {loss_event.node} out of range [0, {machine.nodes})"
                )

        #: Per-node uplink loss probability.
        self.node_loss = np.full(machine.nodes, plan.loss, dtype=np.float64)
        for node, prob in plan.link_loss.items():
            self.node_loss[node] = prob
        #: Per-thread slowdown multipliers (1.0 = healthy).
        self.slowdown = np.ones(self.s, dtype=np.float64)
        for thread, factor in plan.stragglers.items():
            self.slowdown[thread] = factor
        self._lossy = bool(np.any(self.node_loss > 0.0))
        self._slow = bool(np.any(self.slowdown > 1.0))
        #: Crash events still pending, ordered by scheduled time so the
        #: earliest-due event is always consumed first (deterministic).
        self._pending: List[CrashEvent] = sorted(plan.crashes, key=lambda e: e.at_time)
        #: Permanent node-loss events still pending, earliest-due first.
        self._pending_losses: List[NodeLossEvent] = sorted(
            plan.node_losses, key=lambda e: e.at_time
        )
        #: Shared arrays registered as corruption targets (owner-block
        #: bit flips), and the virtual timestamp of the next flip event.
        self._corruptible: List = []
        self._corruptible_elems = 0
        self._next_flip: "float | None" = None

    # -- per-thread multipliers ---------------------------------------------

    def local_factor(self) -> "np.ndarray | None":
        """Straggler multipliers for local-work charges, or ``None`` when
        every thread is healthy (lets the runtime skip the multiply)."""
        return self.slowdown if self._slow else None

    def comm_factor(self, times: np.ndarray) -> "np.ndarray | None":
        """Combined straggler + transient-NIC multiplier for
        communication charges, evaluated at the current virtual clocks
        (a degradation window applies while the node's threads' clocks
        sit inside it)."""
        factor = self.slowdown if self._slow else None
        for window in self.plan.nic_degradations:
            in_window = (
                (self.node_of == window.node)
                & (times >= window.start)
                & (times < window.end)
            )
            if in_window.any():
                if factor is None:
                    factor = np.ones(self.s, dtype=np.float64)
                elif factor is self.slowdown:
                    factor = self.slowdown.copy()
                factor[in_window] *= window.factor
        return factor

    # -- message loss --------------------------------------------------------

    def sample_retries(self, msg_counts) -> tuple[np.ndarray, int]:
        """Retransmission counts for a batch of simulated messages.

        ``msg_counts`` is the per-thread number of messages issued this
        charge.  Each message on a link with loss probability ``q``
        succeeds per attempt with probability ``1 - q``, so the total
        retransmits for a thread's batch follow a negative binomial
        (failures before ``counts`` successes) — sampled in one draw per
        thread instead of one per message.  Returns ``(retries, dead)``
        where ``dead`` counts messages that lost the
        ``q ** max_attempts`` lottery and permanently failed.
        """
        counts = np.rint(np.asarray(msg_counts, dtype=np.float64)).astype(np.int64)
        counts = np.maximum(counts, 0)
        retries = np.zeros(self.s, dtype=np.int64)
        if not self._lossy:
            return retries, 0
        loss = self.node_loss[self.node_of]
        mask = (counts > 0) & (loss > 0.0)
        if not mask.any():
            return retries, 0
        retries[mask] = self.rng.negative_binomial(counts[mask], 1.0 - loss[mask])
        dead = self.rng.binomial(counts[mask], loss[mask] ** self.retry.max_attempts)
        return retries, int(np.asarray(dead).sum())

    # -- crashes -------------------------------------------------------------

    def poll_crash(self, times: np.ndarray) -> Optional[CrashEvent]:
        """Consume and return the earliest pending crash whose scheduled
        time the crashing thread's clock has passed, if any."""
        for i, event in enumerate(self._pending):
            if times[event.thread] >= event.at_time:
                del self._pending[i]
                return event
        return None

    @property
    def pending_crashes(self) -> int:
        return len(self._pending)

    @property
    def unfired_crashes(self) -> tuple:
        """The crash events not yet consumed, earliest-due first (the
        resilience layer remaps these onto the post-loss membership)."""
        return tuple(self._pending)

    # -- permanent node loss ---------------------------------------------------

    def poll_node_loss(self, times: np.ndarray) -> Optional[NodeLossEvent]:
        """Consume and return the earliest pending permanent node loss
        any of whose node's threads' clocks have passed its scheduled
        time, if any.  Events naming a node that is no longer part of
        the membership (dropped by a prior recovery's plan remap) are
        validated away at construction, so whatever is pending here is
        live."""
        for i, event in enumerate(self._pending_losses):
            members = times[self.node_of == event.node]
            if members.size and float(members.max()) >= event.at_time:
                del self._pending_losses[i]
                return event
        return None

    @property
    def pending_node_losses(self) -> int:
        return len(self._pending_losses)

    @property
    def unfired_node_losses(self) -> tuple:
        """The node-loss events not yet consumed, earliest-due first."""
        return tuple(self._pending_losses)

    # -- silent corruption ---------------------------------------------------

    def register_corruptible(self, arr) -> None:
        """Register a shared array as a target for owner-block bit
        flips.  The Poisson flip rate scales with the total number of
        registered elements (``plan.corruption`` flips per element per
        modeled second); registration restarts the inter-arrival
        clock, so register before the solve loop, not inside it."""
        if self.plan.corruption <= 0.0:
            return
        self._corruptible.append(arr)
        self._corruptible_elems += arr.size
        self._next_flip = None

    def _flip_rate(self) -> float:
        """Flip events per virtual second across all registered blocks."""
        return self.plan.corruption * float(self._corruptible_elems)

    def poll_corruption(self, times: np.ndarray) -> int:
        """Fire every flip event whose virtual timestamp the global
        clock has passed; returns the number of elements flipped.

        Events form a Poisson process on the virtual clock and each is
        consumed exactly once — a replayed round re-traverses already
        consumed timestamps cleanly, so verify-and-repair terminates.
        """
        if self.plan.corruption <= 0.0 or not self._corruptible:
            return 0
        now = float(np.asarray(times).max())
        mean_gap = 1.0 / self._flip_rate()
        if self._next_flip is None:
            self._next_flip = now + self._corrupt_rng.exponential(mean_gap)
        flips = 0
        while self._next_flip <= now:
            flips += self._apply_block_flip()
            self._next_flip += self._corrupt_rng.exponential(mean_gap)
        return flips

    def _apply_block_flip(self) -> int:
        """Flip one random bit of one random element of one registered
        array; returns 1 if the stored value changed (0 for degenerate
        single-value domains)."""
        k = int(self._corrupt_rng.integers(0, self._corruptible_elems))
        for arr in self._corruptible:
            if k < arr.size:
                break
            k -= arr.size
        old = int(arr.data[k])
        new = self._fold_flip(old, arr.size)
        if new == old:
            return 0
        arr.data[k] = new
        return 1

    def _fold_flip(self, value: int, domain: int) -> int:
        """A silent single-bit flip folded back into ``[0, domain)``.

        Out-of-domain flips would be caught by the collectives' existing
        bounds checks (loud, not silent); folding models the dangerous
        corruption class — a value that is wrong but still plausible.
        """
        if domain < 2:
            return value
        bit = int(self._corrupt_rng.integers(0, 62))
        flipped = (value ^ (1 << bit)) % domain
        if flipped == value:
            flipped = (value + 1) % domain
        return flipped

    def _flip_packed_weight(self, key: int) -> int:
        """Flip a bit in the weight field of a packed ``(weight <<
        32) | position`` SetDMin key, keeping the position (and hence
        every downstream index) valid — silent-wrong, never a crash."""
        weight = key >> 32
        position = key & 0xFFFFFFFF
        bit = int(self._corrupt_rng.integers(0, 31))
        flipped = (weight ^ (1 << bit)) % (1 << 31)
        if flipped == weight:
            flipped = (weight + 1) % (1 << 31)
        return (flipped << 32) | position

    def corrupt_payload(
        self,
        values: np.ndarray,
        domain: int | None = None,
        packed: bool = False,
        absent: np.ndarray | None = None,
    ) -> tuple[np.ndarray, int]:
        """One wire transmission of a collective payload: each record is
        flipped i.i.d. with ``plan.payload_corruption``.  Returns ``(the
        delivered buffer, number of records actually changed)`` — the
        input is never mutated (a retransmission starts from the clean
        buffer).  Positions listed (ascending) in ``absent`` are not on
        the wire: draws are made over the remaining records only."""
        p = self.plan.payload_corruption
        wire = values.size if absent is None else values.size - absent.size
        if p <= 0.0 or wire == 0:
            return values, 0
        nhit = int(self._corrupt_rng.binomial(wire, p))
        if nhit == 0:
            return values, 0
        positions = np.unique(self._corrupt_rng.integers(0, wire, size=nhit))
        if wire != values.size:
            # The k-th record on the wire sits after every absent position
            # that has at most k records before it.
            before = absent - np.arange(absent.size)
            positions += np.searchsorted(before, positions, side="right")
        out = values.copy()
        changed = 0
        for pos in positions:
            old = int(out[pos])
            new = self._flip_packed_weight(old) if packed else self._fold_flip(old, int(domain))
            if new != old:
                out[pos] = new
                changed += 1
        if changed == 0:
            return values, 0
        return out, changed
