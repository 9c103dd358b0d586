"""Cost model mapping algorithm actions to simulated time.

Every primitive the simulated PGAS runtime exposes (fine-grained remote
access, coalesced bulk transfer, local sequential / random memory access,
lock operations, all-to-all matrix setup) has a corresponding costing
function here.  The functions are deliberately *vectorized*: they accept
NumPy arrays of counts/sizes (one entry per simulated thread) and return
arrays of seconds, so charging 256 threads is a handful of NumPy ops.

The model follows the paper's own Section III/IV analysis:

* a fine-grained blocking remote access is a round trip (``2L``) plus
  per-dereference software handling and small-message congestion; the
  latency waits of a node's threads overlap, but their handling/wire
  occupancy serializes through the NIC ("the messages from the t threads
  on one node are serialized");
* a coalesced transfer of ``k`` elements costs one per-message charge
  (scaled by :attr:`MachineConfig.per_call_scale`) plus ``k*w/B``;
* a sequential scan of ``k`` elements costs ``L_M + k*w/B_M``
  ("Sequentially accessing k elements is charged L_M + k/B_M time
  considering the prefetch or bulk transfer optimization");
* a random access into a working set of ``S`` bytes through a cache of
  ``z`` bytes misses with probability ``exp(-z/S)`` (independent-
  reference-model shape); index vectors are additionally bounded by
  their *distinct*-target cold-miss count — this is the machinery behind
  the paper's Eq. (4)/(5) comparison and the Fig. 4 ``t'`` sweep;
* the all-to-all SMatrix/PMatrix setup of Algorithm 2 issues ``O(s)``
  short messages per thread and *collapses* beyond ``incast_threshold``
  simultaneously bursting threads (the paper's observed 16-thread
  AlltoAll failure; the collapse amplitude is the model's one fitted
  constant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .machine import MachineConfig

__all__ = ["CostModel", "ELEM_BYTES"]

#: Default element width: the algorithms move 64-bit vertex ids / packed
#: weight-edge keys.
ELEM_BYTES = 8

ArrayLike = Union[float, int, np.ndarray]


def _as_array(x: ArrayLike) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


@dataclass(frozen=True)
class CostModel:
    """Derives simulated times from a :class:`MachineConfig`.

    All methods return seconds (scalar or array, matching the input
    shape).  The model never inspects wall-clock time; it is a pure
    function of operation counts and machine parameters.
    """

    machine: MachineConfig

    # -- network ------------------------------------------------------------

    def remote_message_time(self, nbytes: ArrayLike, rdma: bool = False) -> np.ndarray:
        """One coalesced message of ``nbytes`` between two nodes.

        With ``rdma=True`` the per-message software overhead is skipped
        (the paper: "RDMA improves the communication efficiency with
        large messages").
        """
        net = self.machine.network
        overhead = 0.0 if rdma else net.msg_overhead
        per_call = (net.latency + overhead) * self.machine.per_call_scale
        return per_call + _as_array(nbytes) / net.bandwidth

    def fine_grained_remote_time(
        self, naccesses: ArrayLike, bytes_per: int = ELEM_BYTES
    ) -> np.ndarray:
        """Total blocking time of ``naccesses`` fine-grained remote
        accesses as seen by ONE issuing thread (round trip + handling +
        wire, congestion-scaled).  Use the blocking/occupancy split below
        when charging multi-thread nodes."""
        return self.fine_grained_blocking_time(naccesses, bytes_per) + (
            self.fine_grained_occupancy_time(naccesses, bytes_per)
        )

    def fine_grained_blocking_time(
        self, naccesses: ArrayLike, bytes_per: int = ELEM_BYTES
    ) -> np.ndarray:
        """Latency portion of blocking fine-grained accesses: the issuing
        thread waits a full round trip per access, but the *waits* of
        different threads on one node overlap — charge this part
        per-thread, in parallel."""
        net = self.machine.network
        per = (2.0 * net.latency + bytes_per / net.bandwidth) * net.fine_congestion
        return _as_array(naccesses) * per

    def fine_grained_occupancy_time(
        self, naccesses: ArrayLike, bytes_per: int = ELEM_BYTES
    ) -> np.ndarray:
        """NIC/software occupancy of fine-grained accesses: per-message
        runtime handling and wire time occupy the node's injection path
        exclusively — charge this part node-serialized (the paper: "the
        messages from the t threads on one node are serialized")."""
        net = self.machine.network
        per = (net.fine_overhead + bytes_per / net.bandwidth) * net.fine_congestion
        return _as_array(naccesses) * per

    def bulk_transfer_time(
        self,
        nelems: ArrayLike,
        nmessages: ArrayLike = 1,
        bytes_per: int = ELEM_BYTES,
        rdma: bool = False,
        linear_order: bool = False,
    ) -> np.ndarray:
        """``nmessages`` coalesced messages moving ``nelems`` total elements.

        ``linear_order=True`` applies the incast penalty of the naive
        (non-circular) peer ordering in which every thread targets the
        same peer at each step.
        """
        net = self.machine.network
        overhead = 0.0 if rdma else net.msg_overhead
        factor = net.linear_order_factor if linear_order else 1.0
        per_msg = (net.latency + overhead) * self.machine.per_call_scale
        return _as_array(nmessages) * per_msg + factor * _as_array(nelems) * bytes_per / net.bandwidth

    def congestion_factor(self, participants: int) -> float:
        """Multiplier on short-message all-to-all traffic.

        1.0 up to ``incast_threshold`` simultaneously bursting threads;
        beyond it the switch collapses:
        ``1 + amplitude * ((s - threshold)/threshold) ** exponent``.
        This is the paper's 256-thread AlltoAll failure mode ("the burst
        of the short messages overwhelms the cluster and the nodes").
        """
        net = self.machine.network
        if participants <= net.incast_threshold:
            return 1.0
        excess = (participants - net.incast_threshold) / net.incast_threshold
        return float(1.0 + net.incast_amplitude * excess**net.incast_exponent)

    def alltoall_setup_time(
        self, participants: int | None = None, hierarchical: bool = False
    ) -> float:
        """Per-thread cost of the SMatrix/PMatrix setup (Algorithm 2 step 3).

        Flat (UPC-standard) organization: each thread writes two matrix
        entries to every peer.  Peers on *other* nodes cost short network
        messages, serialized and congestion-scaled — the term that blows
        up at 256 threads in the paper's Figs. 7-10.  Peers on the *same*
        node are shared-memory writes (a cache-line transfer each).

        ``hierarchical=True`` implements the paper's future-work fix: a
        node's threads aggregate their entries in shared memory and one
        leader per node exchanges them — only ``p`` processes burst, so
        the congestion factor is evaluated at ``p`` instead of ``s``.
        """
        m = self.machine
        s = m.total_threads if participants is None else participants
        t = min(m.threads_per_node, s)
        net, mem = m.network, m.memory
        if hierarchical:
            nodes = max(s // max(t, 1), 1)
            # Intra-node aggregation: every thread deposits its row of
            # 2s entries into the node buffer (cache-line transfers).
            local = 2 * s * 4.0 * mem.latency
            # One aggregated count-matrix message per peer node (plus its
            # bandwidth), sent by the node leader.
            remote = 2 * max(nodes - 1, 0) * (net.latency + net.msg_overhead)
            remote += 2 * max(nodes - 1, 0) * t * t * 8 / net.bandwidth
            if nodes > 1:
                remote *= self.congestion_factor(nodes)
            return (remote + local) * m.per_call_scale
        remote_peers = max(s - t, 0)
        local_peers = max(t - 1, 0)
        remote = 2 * remote_peers * (net.latency + net.msg_overhead)
        if remote_peers:
            remote *= self.congestion_factor(s)
        local = 2 * local_peers * 4.0 * mem.latency
        return (remote + local) * m.per_call_scale

    def allreduce_time(self) -> float:
        """Per-thread cost of a small allreduce (termination flags):
        ``log2(s)`` dissemination rounds — network-priced across nodes,
        memory-priced within one."""
        m = self.machine
        s = m.total_threads
        if s <= 1:
            return 0.0
        rounds = int(np.ceil(np.log2(s)))
        if m.nodes > 1:
            per = m.network.latency + m.network.msg_overhead
        else:
            per = 4.0 * m.memory.latency
        return rounds * per * m.per_call_scale

    # -- memory -------------------------------------------------------------

    def seq_access_time(self, nelems: ArrayLike, bytes_per: int = ELEM_BYTES) -> np.ndarray:
        """Sequential scan of ``nelems`` contiguous elements:
        ``L_M + nelems * w / B_M`` (one latency, then streamed)."""
        mem = self.machine.memory
        return mem.latency + _as_array(nelems) * bytes_per / mem.bandwidth

    def miss_rate(self, working_set_bytes: ArrayLike) -> np.ndarray:
        """Probability a random access into a working set misses the
        modeled cache.

        Uses the independent-reference-model shape ``exp(-z / S)``: ~1
        when the working set ``S`` dwarfs the cache ``z``, decaying
        smoothly (not linearly) as the working set shrinks — real LRU
        miss curves have this diminishing-returns form, which is what
        puts Fig. 4's optimal ``t'`` *before* the exact cache-fit point.
        A 2% floor covers cold and conflict misses.
        """
        z = float(self.machine.cache.size_bytes)
        ws = np.maximum(_as_array(working_set_bytes), 1.0)
        rate = np.exp(-z / ws)
        return np.clip(rate, 0.02, 1.0)

    def distinct_working_set(
        self,
        distinct: ArrayLike,
        ceiling_bytes: ArrayLike,
        divisor: ArrayLike = 1.0,
    ) -> np.ndarray:
        """Effective working set of an index vector with ``distinct``
        unique targets: one cache line per distinct element, capped by
        the traversed region (``ceiling_bytes``), divided by the number
        of block passes the access schedule splits it into (a ``(k, 1)``
        column of divisors prices ``k`` schedules at once)."""
        line = float(self.machine.cache.line_bytes)
        ws = np.minimum(_as_array(distinct) * line, _as_array(ceiling_bytes))
        return np.maximum(ws / np.maximum(divisor, 1.0), line)

    #: Memory-level parallelism of a *grouped, independent* gather: the
    #: loop's next addresses are known, so several misses overlap in the
    #: memory system.  A dependent pointer-chase (D[D[i]]) gets none of
    #: this — each miss must resolve before the next address exists —
    #: which is one reason the paper's scheduled access beats the plain
    #: SMP loop even before blocks fit in cache.
    GATHER_MLP = 1.6

    def gather_time(
        self,
        counts: ArrayLike,
        distinct: ArrayLike,
        ws_bytes: ArrayLike,
        bytes_per: int = ELEM_BYTES,
        mlp: float = 1.0,
    ) -> np.ndarray:
        """Serving ``counts`` index-vector accesses with ``distinct``
        unique targets: only first touches can miss (cold-miss bound) —
        the duplicated majority of a request vector hits cache, which is
        what keeps the late-iteration label reads (thousands of requests
        for a handful of component roots) nearly free on real hardware.
        Every access still pays the bandwidth term.  ``mlp > 1`` overlaps
        miss latencies (grouped independent gathers only).
        """
        mem = self.machine.memory
        misses = _as_array(distinct) * self.miss_rate(ws_bytes)
        return misses * mem.latency / max(mlp, 1.0) + (
            _as_array(counts) * bytes_per / mem.bandwidth
        )

    def grouped_permute_time(self, nelems: ArrayLike, bytes_per: int = ELEM_BYTES) -> np.ndarray:
        """Applying a *known* permutation to ``nelems`` elements with one
        level of destination blocking: two streamed passes (group by
        destination block, then place within blocks) plus one cold miss
        per destination cache line.  This is the paper's own recipe —
        "Parallel writes in a parallel step can be scheduled similarly"
        — and is why the Irregular slice of Fig. 5 stays moderate.
        """
        mem = self.machine.memory
        n = _as_array(nelems)
        streams = 2.0 * (mem.latency + n * bytes_per / mem.bandwidth)
        cold = n * bytes_per / self.machine.cache.line_bytes * mem.latency
        return streams + cold

    #: Relative cost of one virtual-thread selection pass vs a full
    #: streamed copy: the pass reads indices only and its compare/select
    #: vectorizes, so it moves ~a quarter of the bytes a copy would.
    VSCAN_PASS_WEIGHT = 0.45

    def virtual_scan_time(
        self, nelems: ArrayLike, tprime: ArrayLike, bytes_per: int = ELEM_BYTES
    ) -> np.ndarray:
        """Grouping cost of simulating ``t'`` virtual threads: each
        virtual thread sweeps the received request buffer selecting its
        sub-block's requests — ``t'`` (cheap, SIMD-friendly) passes over
        ``nelems`` elements.  This is the overhead that bends Fig. 4's
        curve back up past the optimal ``t'``.  ``tprime`` may be a
        ``(k, 1)`` column: row ``i`` prices ``tprime[i]``."""
        per_pass = self.seq_access_time(_as_array(nelems), bytes_per) * self.VSCAN_PASS_WEIGHT
        return np.where(np.asarray(tprime) > 1, tprime * per_pass, 0.0)

    def random_access_time(
        self,
        naccesses: ArrayLike,
        working_set_bytes: ArrayLike,
        bytes_per: int = ELEM_BYTES,
    ) -> np.ndarray:
        """``naccesses`` random accesses into a working set of the given
        size: each access pays the bandwidth term, and a full memory
        latency on a (modeled) miss."""
        mem = self.machine.memory
        per = self.miss_rate(working_set_bytes) * mem.latency + bytes_per / mem.bandwidth
        return _as_array(naccesses) * per

    # -- compute ------------------------------------------------------------

    def op_time(self, nops: ArrayLike) -> np.ndarray:
        """``nops`` simple vectorizable ALU operations."""
        return _as_array(nops) * self.machine.cpu.op_time

    def intrinsic_id_time(self, nops: ArrayLike) -> np.ndarray:
        """Target-thread-id computation via the UPC compiler intrinsic
        (what the ``id`` optimization replaces with direct arithmetic)."""
        return _as_array(nops) * self.machine.cpu.op_time * self.machine.cpu.intrinsic_factor

    def upc_local_deref_time(self, naccesses: ArrayLike, working_set_bytes: ArrayLike) -> np.ndarray:
        """Local accesses performed through shared pointers, paying the
        runtime's affinity checks (what ``localcpy`` avoids by casting to
        private pointers)."""
        return (
            self.random_access_time(naccesses, working_set_bytes)
            + _as_array(naccesses) * self.machine.cpu.op_time * self.machine.cpu.upc_deref_factor
        )

    # -- sorting ------------------------------------------------------------

    def count_sort_time(self, nelems: ArrayLike, nbuckets: ArrayLike) -> np.ndarray:
        """Linear-time counting sort of ``nelems`` keys into ``nbuckets``.

        Matches the paper's Section IV accounting: two streamed passes
        over the data plus two passes over the (cache-resident) histogram,
        and a random-scatter pass bounded by the bucket count.
        """
        mem = self.machine.memory
        n = _as_array(nelems)
        w = _as_array(nbuckets)
        stream = 2.0 * (mem.latency + n * ELEM_BYTES / mem.bandwidth)
        histogram = 2.0 * w * (mem.latency + 1.0 / mem.bandwidth)
        scatter = self.random_access_time(n, np.minimum(w, n) * ELEM_BYTES)
        return stream + histogram + scatter + self.op_time(2.0 * n)

    def comparison_sort_time(self, nelems: ArrayLike) -> np.ndarray:
        """Quicksort-style comparison sort: ``n log n`` compares with the
        branch-miss-heavy inner loop, plus ``log n`` partitioning passes.

        Quicksort's partitioning is *sequential* scans, so no random-miss
        term applies; the cost is dominated by the comparison/branch work
        (~10 cycle-equivalents per element per level, reflecting branch
        mispredictions), which is what makes it ">50x slower than count
        sort" at the paper's request sizes.
        """
        n = np.maximum(_as_array(nelems), 1.0)
        logn = np.log2(np.maximum(n, 2.0))
        compares = self.op_time(10.0 * n * logn)
        passes = logn * self.seq_access_time(n)
        return compares + passes

    # -- locks --------------------------------------------------------------

    def lock_init_time(self, nlocks: ArrayLike) -> np.ndarray:
        """Initialization of ``nlocks`` fine-grained locks (MST-SMP pays
        this once per run for every vertex)."""
        return _as_array(nlocks) * self.machine.locks.init_time

    def lock_op_time(self, nops: ArrayLike, contention: ArrayLike = 0.0) -> np.ndarray:
        """``nops`` acquire/release pairs; ``contention`` is the expected
        fraction of operations that hit a contended lock (cache-line
        transfer between CPUs)."""
        locks = self.machine.locks
        per = locks.acquire_time + _as_array(contention) * locks.contention_time
        return _as_array(nops) * per

    # -- barrier ------------------------------------------------------------

    def barrier_time(self, participants: int | None = None) -> float:
        return self.machine.barrier_time(participants)
