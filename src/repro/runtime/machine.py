"""Machine description for the simulated PGAS cluster.

The paper's platform is a cluster of 16 IBM P575+ nodes (16 CPUs each,
1.9 GHz, 64 GB DDR2) connected by a dual-plane 2 GB/s High Performance
Switch.  We cannot run UPC on that hardware, so the reproduction executes
the algorithms on a *simulated* cluster: every algorithm manipulates real
NumPy data, while time is charged to per-thread virtual clocks according
to a cost model parameterized by this machine description.

The parameters are grouped the same way the paper's Section III analysis
groups them:

* network — latency ``L``, bandwidth ``B``, plus the software per-message
  overhead and congestion behaviour the paper discusses qualitatively;
* memory — latency ``L_M`` and bandwidth ``B_M`` (the paper quotes DDR3
  ~9 ns for its analytic estimate; real random-access DRAM latency on the
  P575+ generation is closer to 90 ns — both presets are provided);
* cache — a single modeled cache level per thread (the paper tunes its
  ``t'`` parameter so blocks fit "a certain level cache hierarchy, e.g. L2");
* cpu — a scalar cost per simple ALU operation;
* locks — acquisition/contention parameters for the MST-SMP baseline.

Presets mirror the paper's machines; see :func:`hps_cluster`,
:func:`smp_node`, and :func:`sequential_machine`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any

from ..errors import ConfigError

__all__ = [
    "NetworkParams",
    "MemoryParams",
    "CacheParams",
    "CpuParams",
    "LockParams",
    "MachineConfig",
    "hps_cluster",
    "infiniband_cluster",
    "smp_node",
    "sequential_machine",
    "scaled_cache",
    "cluster_shape",
    "parse_machine",
    "MACHINE_SPECS",
]


@dataclass(frozen=True)
class NetworkParams:
    """Inter-node network parameters.

    Attributes
    ----------
    latency:
        One-way network latency ``L`` in seconds for a message between two
        nodes (HPS MPI-level latency is on the order of 5 us).
    bandwidth:
        Peak point-to-point bandwidth ``B`` in bytes/second (HPS: 2 GB/s).
    msg_overhead:
        Software (runtime) overhead per coalesced message in seconds.
        RDMA transfers skip it.
    fine_overhead:
        Extra software overhead per *fine-grained* blocking access (the
        UPC runtime's per-dereference handling — "software handling of
        communication" in the paper's Section III).  A blocking get is a
        full round trip, so it additionally pays ``2 * latency``.
    fine_congestion:
        Multiplier on fine-grained traffic modeling the "network
        congestion incurred by numerous small messages" the paper cites:
        per-element messages swamp switch buffers and remote handlers in
        a way coalesced transfers do not.
    incast_threshold:
        Number of simultaneously communicating threads above which the
        all-to-all setup traffic collapses the switch.  Models the
        paper's observation that the burst of ``s^2`` short messages in
        Algorithm 2's step 3 "overwhelms the cluster" at 256 threads.
    incast_exponent, incast_amplitude:
        Shape and magnitude of the collapse:
        ``factor = 1 + amplitude * ((s - threshold)/threshold)**exponent``.
        The amplitude is the model's one *fitted* constant, calibrated so
        the 8 -> 16 threads/node transition reproduces the paper's
        measured ~10x degradation (incast goodput collapse of this
        magnitude is well documented for bursty many-to-many traffic).
    linear_order_factor:
        Slowdown multiplier applied to bulk-transfer time when the
        *linear* (non-circular) communication schedule is used: every
        thread targets the same peer at the same step, halving effective
        bandwidth.  The paper measures "communication time reduced by a
        factor of 2 with circular"; the default reproduces that.
    """

    latency: float = 5.0e-6
    bandwidth: float = 2.0e9
    msg_overhead: float = 1.0e-6
    fine_overhead: float = 8.0e-6
    fine_congestion: float = 2.0
    incast_threshold: int = 128
    incast_exponent: float = 2.0
    incast_amplitude: float = 2000.0
    linear_order_factor: float = 2.0

    def validate(self) -> None:
        if self.latency < 0 or self.bandwidth <= 0 or self.msg_overhead < 0:
            raise ConfigError(f"invalid network parameters: {self}")
        if self.fine_overhead < 0 or self.fine_congestion < 1.0:
            raise ConfigError(f"invalid fine-grained parameters: {self}")
        if self.incast_threshold < 1 or self.incast_exponent < 0 or self.incast_amplitude < 0:
            raise ConfigError(f"invalid incast parameters: {self}")
        if self.linear_order_factor < 1.0:
            raise ConfigError("linear_order_factor must be >= 1")


@dataclass(frozen=True)
class MemoryParams:
    """Node-local memory parameters (``L_M``, ``B_M`` in the paper)."""

    latency: float = 9.0e-8
    bandwidth: float = 5.0e9

    def validate(self) -> None:
        if self.latency < 0 or self.bandwidth <= 0:
            raise ConfigError(f"invalid memory parameters: {self}")


@dataclass(frozen=True)
class CacheParams:
    """Single modeled cache level per thread.

    The analytic working-set model in :mod:`repro.scheduling.cache_model`
    uses ``size_bytes`` and ``line_bytes``; the exact simulator in
    :mod:`repro.scheduling.cache_sim` additionally uses associativity.
    """

    size_bytes: int = 1_875_000  # P575+ (POWER5+) L2 per core, ~1.875 MB
    line_bytes: int = 128
    associativity: int = 8

    def validate(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise ConfigError(f"invalid cache parameters: {self}")
        if self.line_bytes > self.size_bytes:
            raise ConfigError("cache line larger than cache")

    @property
    def num_lines(self) -> int:
        return max(1, self.size_bytes // self.line_bytes)


@dataclass(frozen=True)
class CpuParams:
    """Scalar compute cost.

    ``op_time`` is the charged time per simple vectorizable ALU operation
    (compare, add, index computation).  ``intrinsic_factor`` is the
    multiplier applied to target-thread-id computation when the UPC
    compiler intrinsic is used instead of direct arithmetic (removed by
    the paper's ``id`` optimization), and ``upc_deref_factor`` the
    multiplier on local shared-pointer dereferences that private pointer
    arithmetic avoids (the ``localcpy`` optimization).
    """

    op_time: float = 1.0e-9
    intrinsic_factor: float = 8.0
    #: An un-cast local dereference of a shared pointer enters the UPC
    #: runtime for affinity resolution — tens of cycles, not a plain
    #: load.  (What the ``localcpy`` optimization eliminates; calibrated
    #: so the Fig. 5 Copy-category reduction lands near the paper's ~2x.)
    upc_deref_factor: float = 12.0

    def validate(self) -> None:
        if self.op_time <= 0:
            raise ConfigError(f"invalid cpu parameters: {self}")
        if self.intrinsic_factor < 1 or self.upc_deref_factor < 1:
            raise ConfigError("compiler overhead factors must be >= 1")


@dataclass(frozen=True)
class LockParams:
    """Fine-grained lock costs for the MST-SMP baseline.

    The paper attributes MST-SMP's poor showing on 100M-vertex inputs
    "largely due to the locking overhead with using 100M locks":
    initialization touches every lock once, and every min-edge update
    attempt pays an acquire/release pair plus a cache-line transfer when
    contended.
    """

    init_time: float = 5.0e-8
    acquire_time: float = 1.5e-7
    contention_time: float = 4.0e-7

    def validate(self) -> None:
        if min(self.init_time, self.acquire_time, self.contention_time) < 0:
            raise ConfigError(f"invalid lock parameters: {self}")


@dataclass(frozen=True)
class MachineConfig:
    """A simulated cluster of SMP nodes.

    Parameters
    ----------
    nodes:
        Number of nodes ``p``.
    threads_per_node:
        Number of threads per node ``t``.  The paper's ``s = p * t`` total
        thread count is :attr:`total_threads`.
    network, memory, cache, cpu, locks:
        Parameter groups; see the individual dataclasses.
    barrier_base, barrier_per_thread:
        Cost of a full barrier: ``barrier_base + barrier_per_thread *
        log2(s)`` (dissemination barrier).
    name:
        Human-readable label used in benchmark reports.
    """

    nodes: int = 16
    threads_per_node: int = 16
    network: NetworkParams = field(default_factory=NetworkParams)
    memory: MemoryParams = field(default_factory=MemoryParams)
    cache: CacheParams = field(default_factory=CacheParams)
    cpu: CpuParams = field(default_factory=CpuParams)
    locks: LockParams = field(default_factory=LockParams)
    barrier_base: float = 2.0e-6
    barrier_per_thread: float = 1.0e-6
    #: Scale applied to *per-call* costs: coalesced message latencies,
    #: all-to-all setup, allreduces, barriers.  Benchmarks that shrink the
    #: paper's inputs by a factor f also set this to f, because per-call
    #: costs are incurred a constant number of times per collective while
    #: per-element costs shrink with the input — without this, a scaled
    #: input sits in a latency-bound regime the paper's machine was never
    #: in.  Per-element and fine-grained per-access costs are NOT scaled.
    per_call_scale: float = 1.0
    name: str = "cluster"

    def __post_init__(self) -> None:
        if self.nodes < 1 or self.threads_per_node < 1:
            raise ConfigError(
                f"machine needs >=1 node and >=1 thread per node, got "
                f"nodes={self.nodes}, threads_per_node={self.threads_per_node}"
            )
        if self.barrier_base < 0 or self.barrier_per_thread < 0:
            raise ConfigError("barrier costs must be non-negative")
        if self.per_call_scale <= 0:
            raise ConfigError("per_call_scale must be positive")
        self.network.validate()
        self.memory.validate()
        self.cache.validate()
        self.cpu.validate()
        self.locks.validate()

    # -- derived quantities -------------------------------------------------

    @property
    def total_threads(self) -> int:
        """``s = p * t``."""
        return self.nodes * self.threads_per_node

    @property
    def is_distributed(self) -> bool:
        """True when remote (inter-node) traffic is possible."""
        return self.nodes > 1

    def node_of_thread(self, thread: int) -> int:
        """Node hosting global thread id ``thread`` (threads are laid out
        node-major, matching UPC's blocked THREADS layout)."""
        if not 0 <= thread < self.total_threads:
            raise ConfigError(f"thread id {thread} out of range [0, {self.total_threads})")
        return thread // self.threads_per_node

    def barrier_time(self, participants: int | None = None) -> float:
        """Modeled cost of a barrier among ``participants`` threads."""
        s = self.total_threads if participants is None else participants
        if s <= 1:
            return 0.0
        return (self.barrier_base + self.barrier_per_thread * math.log2(s)) * self.per_call_scale

    def with_(self, **updates: Any) -> "MachineConfig":
        """Return a copy with the given top-level fields replaced."""
        return replace(self, **updates)

    def describe(self) -> str:
        """One-line summary used by the benchmark harness."""
        return (
            f"{self.name}: {self.nodes} node(s) x {self.threads_per_node} thread(s)"
            f" (s={self.total_threads}), L={self.network.latency * 1e6:.2f}us,"
            f" B={self.network.bandwidth / 1e9:.1f}GB/s,"
            f" L_M={self.memory.latency * 1e9:.0f}ns,"
            f" B_M={self.memory.bandwidth / 1e9:.1f}GB/s,"
            f" cache={self.cache.size_bytes / 1024:.0f}KB"
        )


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def hps_cluster(nodes: int = 16, threads_per_node: int = 16, **overrides: Any) -> MachineConfig:
    """The paper's target platform: 16 P575+ nodes on a 2 GB/s HPS."""
    cfg = MachineConfig(
        nodes=nodes,
        threads_per_node=threads_per_node,
        name=f"hps-{nodes}x{threads_per_node}",
    )
    return cfg.with_(**overrides) if overrides else cfg


def infiniband_cluster(nodes: int = 16, threads_per_node: int = 16) -> MachineConfig:
    """The hypothetical machine of the paper's Section III estimate:
    Infiniband (190 ns adapter latency, 4 GB/s) + DDR3 (9 ns)."""
    return MachineConfig(
        nodes=nodes,
        threads_per_node=threads_per_node,
        network=NetworkParams(latency=1.9e-7, bandwidth=4.0e9, msg_overhead=0.0),
        memory=MemoryParams(latency=9.0e-9, bandwidth=4.0e9),
        name=f"ib-{nodes}x{threads_per_node}",
    )


def smp_node(threads: int = 16, **overrides: Any) -> MachineConfig:
    """A single SMP node (the CC-SMP / MST-SMP baseline platform)."""
    cfg = MachineConfig(nodes=1, threads_per_node=threads, name=f"smp-{threads}")
    return cfg.with_(**overrides) if overrides else cfg


def sequential_machine(**overrides: Any) -> MachineConfig:
    """A single thread on a single node (sequential baselines)."""
    cfg = MachineConfig(nodes=1, threads_per_node=1, name="sequential")
    return cfg.with_(**overrides) if overrides else cfg


#: The machine spec grammar :func:`parse_machine` reads, for help texts.
MACHINE_SPECS = "NODESxTHREADS (e.g. 16x8), 'smp' (1x16) or 'seq'"


def cluster_shape(text: str) -> tuple[int, int]:
    """``(nodes, threads_per_node)`` from ``NODESxTHREADS`` (e.g. ``16x8``)."""
    try:
        nodes, threads = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise ConfigError(f"expected NODESxTHREADS (e.g. 16x8), got {text!r}") from None
    return nodes, threads


def parse_machine(text: str) -> MachineConfig:
    """The uncalibrated machine a spec names: ``NODESxTHREADS`` (an HPS
    cluster), ``smp`` (one 16-thread node) or ``seq``.  Junk raises
    :class:`~repro.errors.ConfigError`."""
    if text == "seq":
        return sequential_machine()
    if text == "smp":
        return smp_node(16)
    try:
        shape = cluster_shape(text)
    except ConfigError:
        raise ConfigError(f"expected {MACHINE_SPECS}, got {text!r}") from None
    return hps_cluster(*shape)


def scaled_cache(machine: MachineConfig, scale: float) -> MachineConfig:
    """Scale the cache size by ``scale`` (used when benchmark inputs are
    scaled down from the paper's 100M-vertex graphs so that cache-fit
    crossovers — e.g. the Fig. 4 ``t'`` sweep — land in the same relative
    position)."""
    if scale <= 0:
        raise ConfigError("cache scale must be positive")
    new_size = max(machine.cache.line_bytes, int(machine.cache.size_bytes * scale))
    return machine.with_(cache=replace(machine.cache, size_bytes=new_size))
