"""The simulated PGAS runtime.

:class:`PGASRuntime` ties together a machine description, its cost model,
per-thread clocks, and an execution trace.  Algorithm code is written in
a bulk-SPMD style: each step is expressed as an operation over
:class:`~repro.runtime.partitioned.PartitionedArray` per-thread data, and
the runtime both *performs* the data movement (NumPy) and *charges* the
modeled time to the right threads and trace categories.

Two access disciplines are exposed:

* **fine-grained** (:meth:`fine_grained_read` / :meth:`fine_grained_write`)
  — one small blocking message per remote element, UPC-pointer overhead
  per local element.  This is what the naive translation of the
  shared-memory code (Fig. 1 right) compiles to, and why it is three
  orders of magnitude slower.
* **coalesced collectives** — implemented in :mod:`repro.collectives`
  on top of the charging primitives here.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import CollectiveError, FaultError, ThreadCrash, UnrecoverableLossError
from .clocks import ThreadClocks
from .cost import CostModel
from .machine import MachineConfig
from .partitioned import PartitionedArray
from .shared_array import SharedArray
from .trace import Category, Counters, Trace

__all__ = ["PGASRuntime", "set_sync_poll"]

#: Optional observation-only callback invoked at every synchronization
#: point (barrier / allreduce).  Installed by :mod:`repro.service.
#: deadlines` for cooperative job cancellation; it must never charge
#: modeled time or draw random numbers, so modeled results stay
#: bit-identical with the hook on or off.  It may raise (e.g.
#: :class:`~repro.errors.JobCancelled`) to unwind the enclosing solve.
_SYNC_POLL: "Callable[[], None] | None" = None


def set_sync_poll(fn: "Callable[[], None] | None") -> "Callable[[], None] | None":
    """Install (or clear, with ``None``) the global sync-point poll.

    Returns the previously installed poll so callers can restore it.
    """
    global _SYNC_POLL
    previous = _SYNC_POLL
    _SYNC_POLL = fn
    return previous


class PGASRuntime:
    """Executable simulation context for one run of one algorithm.

    ``profile=True`` attaches a :class:`~repro.runtime.profiling.PhaseProfiler`
    that records one entry per collective call (duration, mean thread
    time, skew) — the tool for locating hotspots like the label-
    concentrated serves that the ``offload`` optimization defuses.

    ``faults`` accepts a :class:`~repro.faults.FaultPlan` (or a
    pre-built :class:`~repro.faults.FaultInjector`): lost messages then
    cost timeout + backoff + retransmit on the issuing thread's clock,
    stragglers and degraded NICs stretch their charges, and scheduled
    crashes fire at synchronization points.  With no plan (or a no-op
    plan) the fault layer is skipped entirely and modeled times are
    bit-identical to a fault-free build.

    ``analyze`` attaches a
    :class:`~repro.analysis.race.EpochRaceDetector` (pass ``True`` for a
    fresh one or an existing detector to share).  Runtimes built inside
    a :func:`repro.analysis.analyzed` block attach automatically.  The
    detector only *observes* — it never charges time or draws random
    numbers — so modeled results are bit-identical with it on or off.

    ``integrity`` accepts an :class:`~repro.integrity.IntegrityConfig`
    (or ``True`` for the defaults): arrays registered through
    :meth:`protect_array` then carry verified block digests, collective
    payloads are end-to-end checked, and detection raises
    :class:`~repro.errors.IntegrityError` for the solver's repair path.
    With no config (or an all-off one) the integrity layer is skipped
    entirely and modeled times are bit-identical to a build without it.

    ``resilience`` accepts a
    :class:`~repro.resilience.RedundancyConfig` (or ``True`` for the
    defaults, or an existing :class:`~repro.resilience.ResilientSession`
    to adopt across a membership change): enrolled shared arrays then
    keep charged off-node replicas/parity of their committed state, and
    a fired permanent :class:`~repro.faults.NodeLossEvent` is routed to
    the session's recovery protocol instead of killing the run.  With no
    session, a permanent loss raises
    :class:`~repro.errors.UnrecoverableLossError` — loud, never a hang.
    """

    def __init__(
        self,
        machine: MachineConfig,
        profile: bool = False,
        faults=None,
        analyze=False,
        integrity=None,
        resilience=None,
    ) -> None:
        self.machine = machine
        self.cost = CostModel(machine)
        self.clocks = ThreadClocks(machine)
        self.trace = Trace()
        if profile:
            # Full event fidelity when profiling; the default cap only
            # bounds memory on long unprofiled campaigns.
            self.trace.event_cap = None
        self.faults = None
        if faults is not None:
            from ..faults.injector import FaultInjector

            injector = (
                faults if isinstance(faults, FaultInjector) else FaultInjector(faults, machine)
            )
            # A no-op plan keeps the zero-overhead default path engaged.
            if injector.plan.any_faults:
                self.faults = injector
        self.integrity = None
        if integrity is not None:
            from ..integrity.config import IntegrityConfig
            from ..integrity.monitor import IntegrityMonitor

            cfg = IntegrityConfig() if integrity is True else integrity
            if cfg.enabled:
                self.integrity = IntegrityMonitor(cfg, self)
        self.resilience = None
        if resilience is not None:
            from ..resilience.session import RedundancyConfig, ResilientSession

            if isinstance(resilience, ResilientSession):
                # Adopted across a membership change: the session keeps
                # its epoch/spare state and rebinds to this runtime.
                self.resilience = resilience
                resilience.rt = self
            else:
                rcfg = RedundancyConfig() if resilience is True else resilience
                self.resilience = ResilientSession(rcfg, self)
        self.profiler = None
        from .profiling import PhaseProfiler, current_profile_session

        session = current_profile_session()
        if profile or session is not None:
            self.profiler = PhaseProfiler()
            if session is not None:
                session.profilers.append(self.profiler)
        self.analyzer = None
        from ..analysis.race import EpochRaceDetector, current_analysis

        analysis = current_analysis()
        if analyze or analysis is not None:
            if isinstance(analyze, EpochRaceDetector):
                self.analyzer = analyze
            else:
                self.analyzer = EpochRaceDetector()
            self.analyzer.attach(machine)
            if analysis is not None:
                analysis.add(self.analyzer)

    def phase_start(self) -> "tuple[np.ndarray, int] | None":
        """Snapshot clocks and retry count if profiling; collectives call
        this on entry."""
        if self.profiler is None:
            return None
        return self.clocks.times.copy(), self.counters.retries

    def phase_end(self, name: str, requests: int, before) -> None:
        """Record a profiled phase; no-op unless profiling is on.

        The imbalance is read from the most recent barrier (collectives
        end with one), so hotspots survive the clock equalization.
        """
        if self.profiler is not None and before is not None:
            times_before, retries_before = before
            self.profiler.record(
                name,
                requests,
                times_before,
                self.clocks.times,
                imbalance_s=self.clocks.last_barrier_skew,
                hottest_thread=getattr(self.clocks, "last_hot_thread", 0),
                retries=self.counters.retries - retries_before,
            )

    # -- convenience --------------------------------------------------------

    @property
    def s(self) -> int:
        return self.machine.total_threads

    @property
    def counters(self) -> Counters:
        return self.trace.counters

    @property
    def elapsed(self) -> float:
        """Simulated execution time so far (slowest thread)."""
        return self.clocks.elapsed

    def shared_array(
        self, data: np.ndarray, block: int | None = None, name: str | None = None
    ) -> SharedArray:
        """Allocate and distribute a shared array, charging each thread
        for touching (initializing) its local portion."""
        arr = SharedArray(self.machine, data, block, name=name)
        init = self.cost.seq_access_time(arr.local_sizes(), arr.nbytes_per_elem)
        self.charge(Category.WORK, init)
        self.counters.add(local_seq_elements=arr.size)
        if self.analyzer is not None:
            self.analyzer.register_array(arr)
        return arr

    def protect_array(self, arr: SharedArray, corruptible: bool = True) -> SharedArray:
        """Opt a shared array into the silent-fault story on both sides:
        register it as a bit-flip target with the active fault plan
        (unless ``corruptible=False`` — e.g. packed-key arrays whose
        values have no fold-safe flip domain), and start maintaining
        verified block digests when an integrity config is attached.
        Returns ``arr`` for chaining."""
        if corruptible and self.faults is not None:
            self.faults.register_corruptible(arr)
        if self.integrity is not None:
            self.integrity.track(arr)
        return arr

    # -- charging primitives --------------------------------------------------

    def charge(self, category: str, per_thread_seconds) -> None:
        """Charge per-thread local time (parallel across threads)."""
        if self.faults is not None:
            factor = self.faults.local_factor()
            if factor is not None:
                per_thread_seconds = np.asarray(per_thread_seconds, dtype=np.float64) * factor
        charged = self.clocks.charge(per_thread_seconds)
        self.trace.charge_category(category, float(charged.sum()))

    def charge_thread(self, category: str, thread: int, seconds: float) -> None:
        if self.faults is not None:
            seconds = seconds * float(self.faults.slowdown[thread])
        self.clocks.charge_thread(thread, seconds)
        self.trace.charge_category(category, seconds)

    def charge_comm(self, per_thread_seconds, serialize: bool = True) -> None:
        """Charge communication time; by default serialized through each
        node's NIC (blocking messages from one node share the link).

        With faults active, stragglers and any NIC-degradation window
        covering a node's current virtual time stretch that node's
        charges."""
        if self.faults is not None:
            factor = self.faults.comm_factor(self.clocks.times)
            if factor is not None:
                per_thread_seconds = np.asarray(per_thread_seconds, dtype=np.float64) * factor
        if serialize:
            charged = self.clocks.node_serialize(per_thread_seconds)
        else:
            charged = self.clocks.charge(per_thread_seconds)
        self.trace.charge_category(Category.COMM, float(charged.sum()))

    # -- fault consequences ----------------------------------------------------

    def charge_message_faults(self, msg_counts, per_message_seconds) -> None:
        """Price message loss for a batch of simulated messages.

        ``msg_counts`` is per-thread messages issued; each retransmit
        costs the :class:`~repro.faults.RetryPolicy` timeout + backoff
        plus ``per_message_seconds`` of wire/handling time, charged to
        the issuing thread's clock under the ``Retry`` category.  Raises
        :class:`~repro.errors.FaultError` when a message exhausts the
        retry budget.  No-op without an active fault plan.
        """
        if self.faults is None:
            return
        retries, dead = self.faults.sample_retries(msg_counts)
        total = int(retries.sum())
        if dead:
            self.counters.add(retries=total)
            raise FaultError(
                f"{dead} simulated message(s) exceeded "
                f"max_attempts={self.faults.retry.max_attempts} and were dropped for good"
            )
        if total == 0:
            return
        penalty = self.faults.retry.penalty_seconds(retries)
        penalty = penalty + retries * np.asarray(per_message_seconds, dtype=np.float64)
        self.charge(Category.RETRY, penalty)
        self.counters.add(retries=total, remote_messages=total)

    def _poll_crash(self) -> None:
        """Fire a due crash event: the crashed thread pays its recovery
        time, every other thread waits at the barrier, and the enclosing
        round is signalled to replay via :class:`ThreadCrash`."""
        event = self.faults.poll_crash(self.clocks.times)
        if event is None:
            return
        self.counters.add(crashes=1)
        self.charge_thread(Category.FAULT, event.thread, event.recovery)
        self.clocks.barrier(0.0)
        raise ThreadCrash(event.thread, event.at_time, event.recovery)

    def _poll_node_loss(self) -> None:
        """Fire a due permanent node loss.  With a resilience session the
        session runs loss detection (and raises
        :class:`~repro.errors.NodeLoss` into the solver's recovery
        scope); without one the run fails loudly — survivors would block
        on the dead node's barrier arrivals forever, and a hang or a
        silently-wrong answer are the two outcomes this layer exists to
        rule out."""
        event = self.faults.poll_node_loss(self.clocks.times)
        if event is None:
            return
        self.counters.add(node_losses=1)
        if self.resilience is None:
            raise UnrecoverableLossError(
                event.node,
                event.at_time,
                "no redundancy is configured (run with repro.resilience to survive)",
            )
        self.resilience.on_loss(event)

    def _poll_corruption(self) -> None:
        """Fire due silent bit-flip events against the registered arrays
        (Poisson process on the virtual clock; each event fires once)."""
        flips = self.faults.poll_corruption(self.clocks.times)
        if flips:
            self.counters.add(corruptions_injected=flips)

    def barrier(self) -> None:
        """Full barrier across all simulated threads."""
        if _SYNC_POLL is not None:
            _SYNC_POLL()
        self.clocks.barrier(self.cost.barrier_time())
        self.counters.add(barriers=1)
        # Close the detector epoch BEFORE crash polling: a ThreadCrash
        # replays the round in fresh epochs, so the replay cannot
        # conflict with the aborted attempt (no phantom reports).
        if self.analyzer is not None:
            self.analyzer.on_barrier()
        if self.faults is not None:
            # Permanent losses outrank transient crashes: a node that is
            # gone for good must open a new epoch, not a round replay.
            self._poll_node_loss()
            self._poll_crash()
            self._poll_corruption()
        # Digest verification runs at every sync point, right after the
        # corruption poll: a flip must be caught before the next charged
        # write could launder it into a refreshed digest.
        if self.integrity is not None:
            self.integrity.on_barrier()

    def allreduce_flag(self, flags: np.ndarray) -> bool:
        """Logical-OR allreduce used for termination detection.

        Synchronizes clocks (it is a collective) and charges a
        dissemination pattern: ``log2(s)`` rounds of one short message.
        Returns the reduced boolean.
        """
        flags = np.asarray(flags)
        if flags.shape != (self.s,):
            raise CollectiveError(
                f"allreduce expects one flag per thread ({self.s}), got shape {flags.shape}"
            )
        if _SYNC_POLL is not None:
            _SYNC_POLL()
        rounds = int(np.ceil(np.log2(self.s))) if self.s > 1 else 0
        self.clocks.barrier(self.cost.barrier_time())
        self.charge(Category.SETUP, self.cost.allreduce_time())
        if self.machine.nodes > 1:
            self.counters.add(remote_messages=rounds * self.s)
        self.counters.add(barriers=1)
        if self.analyzer is not None:
            self.analyzer.on_barrier()
        if self.faults is not None:
            self._poll_node_loss()
            self._poll_crash()
            self._poll_corruption()
        if self.integrity is not None:
            self.integrity.on_barrier()
        return bool(flags.any())

    # -- fine-grained shared access (the naive discipline) ---------------------

    def split_local_remote(
        self, arr: SharedArray, indices: PartitionedArray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-thread counts of node-local vs remote accesses for the
        given request partition (requests from thread i target the node
        owning each index; same node => local)."""
        owner_nodes = arr.owner_node(indices.data)
        req_threads = indices.thread_ids()
        req_nodes = req_threads // self.machine.threads_per_node
        remote_mask = owner_nodes != req_nodes
        remote = np.bincount(req_threads[remote_mask], minlength=self.s)
        local = indices.sizes() - remote
        return local.astype(np.int64), remote.astype(np.int64)

    def fine_grained_read(self, arr: SharedArray, indices: PartitionedArray) -> np.ndarray:
        """Element-wise reads ``arr[indices]`` with naive per-access cost.

        Every remote element is a blocking small message (node-serialized);
        every local element pays a UPC shared-pointer dereference into the
        node's working set.  Returns the gathered values.
        """
        local, remote = self.split_local_remote(arr, indices)
        w = arr.nbytes_per_elem
        self.charge_fine_grained(remote, w)
        self._charge_fine_local(arr, indices, local)
        if self.analyzer is not None:
            self.analyzer.record_fine(
                arr, "r", indices.data, indices.thread_ids(), phase="fine-read"
            )
        return arr.gather(indices.data)

    def _charge_fine_local(
        self, arr: SharedArray, indices: PartitionedArray, local_counts: np.ndarray
    ) -> None:
        """Node-local portion of fine-grained access: a cache-modeled
        irregular access (cold-miss bounded by the distinct targets) plus
        the UPC runtime's per-dereference affinity handling."""
        distinct = np.minimum(
            indices.segment_distinct().astype(np.float64), local_counts.astype(np.float64)
        )
        ws = self.cost.distinct_working_set(distinct, arr.node_working_set_bytes())
        time = self.cost.gather_time(local_counts, distinct, ws, arr.nbytes_per_elem)
        time = time + self.cost.op_time(local_counts * self.machine.cpu.upc_deref_factor)
        self.charge(Category.IRREGULAR, time)
        self.counters.add(local_random_accesses=int(local_counts.sum()))

    def charge_fine_grained(self, remote_counts: np.ndarray, bytes_per: int) -> None:
        """Charge fine-grained remote accesses with the blocking/occupancy
        split: round-trip waits run in parallel across a node's threads;
        per-message handling serializes through the NIC."""
        self.charge(Category.COMM, self.cost.fine_grained_blocking_time(remote_counts, bytes_per))
        self.charge_comm(self.cost.fine_grained_occupancy_time(remote_counts, bytes_per))
        total = int(np.asarray(remote_counts).sum())
        self.counters.add(
            fine_remote_accesses=total,
            remote_messages=total,
            remote_bytes=total * bytes_per,
        )
        if self.faults is not None:
            # Every per-element message is a loss opportunity; a dropped
            # one costs a timeout plus a fresh blocking round trip.
            self.charge_message_faults(
                remote_counts, self.cost.fine_grained_remote_time(1.0, bytes_per)
            )

    def fine_grained_write(
        self,
        arr: SharedArray,
        indices: PartitionedArray,
        values: np.ndarray,
        combine: str = "min",
    ) -> int:
        """Element-wise writes with naive per-access cost.

        ``combine='min'`` resolves concurrent writes to one location by
        priority (minimum) — deterministic and a legal arbitrary-CRCW
        outcome.  ``combine='store'`` asserts targets are unique.
        Returns the number of changed locations.
        """
        values = np.asarray(values)
        if values.shape[0] != indices.total:
            raise CollectiveError("values length must match request partition")
        local, remote = self.split_local_remote(arr, indices)
        w = arr.nbytes_per_elem
        self.charge_fine_grained(remote, w)
        self._charge_fine_local(arr, indices, local)
        if self.analyzer is not None:
            self.analyzer.record_fine(
                arr,
                "w",
                indices.data,
                indices.thread_ids(),
                combining=combine in ("min", "store_min"),
                phase="fine-write",
            )
        if combine == "min":
            changed = arr.scatter_min(indices.data, values)
        elif combine == "store_min":
            changed = arr.scatter_store_min(indices.data, values)
        elif combine == "store":
            uniq = np.unique(indices.data)
            if uniq.size != indices.total:
                raise CollectiveError("combine='store' requires unique targets")
            before = arr.data[indices.data].copy()
            arr.data[indices.data] = values
            changed = int(np.count_nonzero(arr.data[indices.data] != before))
        else:
            raise CollectiveError(f"unknown combine mode {combine!r}")
        if self.integrity is not None:
            self.integrity.note_write(arr, indices.data)
        if self.resilience is not None:
            self.resilience.mark_write(arr, indices.data)
        return changed

    # -- local (per-thread) modeled work ---------------------------------------

    def _count_total(self, amount) -> int:
        """Total element count across threads: scalars broadcast to every
        thread, arrays are per-thread already."""
        arr = np.asarray(amount)
        if arr.ndim == 0:
            return int(arr) * self.s
        return int(arr.sum())

    def local_random_access(
        self, naccesses, working_set_bytes, category: str = Category.COPY
    ) -> None:
        """Charge random accesses into per-thread working sets."""
        self.charge(category, self.cost.random_access_time(naccesses, working_set_bytes))
        self.counters.add(local_random_accesses=self._count_total(naccesses))

    def local_stream(self, nelems, category: str = Category.WORK) -> None:
        """Charge streamed sequential passes."""
        self.charge(category, self.cost.seq_access_time(nelems))
        self.counters.add(local_seq_elements=self._count_total(nelems))

    def local_ops(self, nops, category: str = Category.WORK) -> None:
        """Charge simple ALU work."""
        self.charge(category, self.cost.op_time(nops))
        self.counters.add(alu_ops=self._count_total(nops))

    # -- owner-local charged access ---------------------------------------------
    #
    # The SPMD solvers update each thread's own block of a shared array
    # ("owner computes"); these helpers bundle the store, the charge, and
    # the sanitizer registration so no call site touches ``arr.data``
    # raw.  Charge shape matches the hand-written originals exactly:
    # ``counts`` per-thread elements through ``local_stream`` (streamed
    # pass) or ``local_ops`` (ALU pass), defaulting to one pass over each
    # thread's block.

    def _owner_counts(self, arr: SharedArray, counts) -> np.ndarray:
        if counts is None:
            return arr.local_sizes().astype(np.float64)
        return counts

    def _owner_charge(self, arr: SharedArray, charge: str, counts, category) -> None:
        if charge == "none":
            # Cost fused into an adjacent charge (e.g. two block stores
            # priced as one double-width stream); caller documents why.
            return
        counts = self._owner_counts(arr, counts)
        if charge == "stream":
            self.local_stream(counts, Category.COPY if category is None else category)
        elif charge == "ops":
            self.local_ops(counts, Category.WORK if category is None else category)
        else:
            raise CollectiveError(f"unknown owner charge mode {charge!r}")

    def owner_block_read(
        self, arr: SharedArray, *, counts=None, category: str = Category.COPY
    ) -> np.ndarray:
        """Each thread streams its own block; returns a copy of the full
        array (the simulation's one-address-space shortcut)."""
        self.local_stream(self._owner_counts(arr, counts), category)
        if self.analyzer is not None:
            self.analyzer.record_block(arr, "r", phase="owner-block-read")
        return arr.data.copy()

    def owner_block_write(
        self, arr: SharedArray, values, *, charge: str = "stream", counts=None, category=None
    ) -> None:
        """Each thread overwrites its own block (``arr[:] = values``)."""
        arr.data[:] = values
        self._owner_charge(arr, charge, counts, category)
        if self.analyzer is not None:
            self.analyzer.record_block(arr, "w", phase="owner-block-write")
        if self.integrity is not None:
            self.integrity.note_write(arr)
        if self.resilience is not None:
            self.resilience.mark_write(arr)

    def owner_masked_write(
        self,
        arr: SharedArray,
        mask: np.ndarray,
        values,
        *,
        charge: str = "stream",
        counts=None,
        category=None,
    ) -> None:
        """Each thread stores into the masked subset of its own block."""
        arr.data[mask] = values
        self._owner_charge(arr, charge, counts, category)
        if self.analyzer is not None:
            self.analyzer.record_owner_write(
                arr, np.flatnonzero(mask), phase="owner-masked-write"
            )
        if self.integrity is not None:
            self.integrity.note_write(arr, mask)
        if self.resilience is not None:
            self.resilience.mark_write(arr, mask)

    def owner_indexed_write(
        self, arr: SharedArray, indices: np.ndarray, values, *, category: str = Category.WORK
    ) -> None:
        """Store at explicit indices, charged to each index's owning
        thread (one streamed element per write on the owner's clock)."""
        arr.data[indices] = values
        writes = np.bincount(arr.owner_thread(indices), minlength=self.s)
        self.local_stream(writes.astype(np.float64), category)
        if self.analyzer is not None:
            self.analyzer.record_owner_write(arr, indices, phase="owner-indexed-write")
        if self.integrity is not None:
            self.integrity.note_write(arr, indices)
        if self.resilience is not None:
            self.resilience.mark_write(arr, indices)

    # -- structured helpers -----------------------------------------------------

    def run_phase(self, name: str, fn: Callable[[], None]) -> None:
        """Run a named sub-phase (placeholder hook for tracing tools)."""
        fn()

    def fork(self) -> "PGASRuntime":
        """A fresh runtime on the same machine (independent clocks/trace);
        used by benchmarks that time sub-algorithms in isolation."""
        return PGASRuntime(self.machine)
