"""Declarative fault plans for the simulated cluster.

A :class:`FaultPlan` describes *what can go wrong* during a run — which
links drop messages and how often, which threads run slow, which NICs
degrade during which virtual-time windows, and which threads crash when.
The plan is pure data: it never touches wall-clock time or global RNG
state.  A :class:`~repro.faults.injector.FaultInjector` turns the plan
into deterministic per-run decisions (seeded ``numpy`` Generator), and
every consequence is charged to the virtual clocks, so two runs of the
same plan on the same input produce identical modeled times.

The topology assumed by the loss model matches the paper's platform: a
star of SMP nodes around one switch, so "a link" is a node's uplink
(NIC <-> switch).  ``loss`` sets the default per-message loss
probability on every link; ``link_loss`` overrides single nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Tuple

import numpy as np

from ..errors import ConfigError

__all__ = ["RetryPolicy", "NicDegradation", "CrashEvent", "NodeLossEvent", "FaultPlan"]


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/backoff/retry semantics for lost simulated messages.

    A dropped message is detected after ``timeout`` seconds of virtual
    time, waits an exponential backoff (``backoff_base * backoff_factor
    ** (attempt - 1)``, capped at ``backoff_cap``), and is retransmitted.
    A message that fails ``max_attempts`` consecutive times raises
    :class:`~repro.errors.FaultError` — the run aborts rather than spin
    forever.  The defaults mirror real transports: the retransmission
    timer (~1 ms) is orders of magnitude above the HPS round trip.
    """

    timeout: float = 1.0e-3
    backoff_base: float = 1.0e-4
    backoff_factor: float = 2.0
    backoff_cap: float = 5.0e-3
    max_attempts: int = 8

    def __post_init__(self) -> None:
        if self.timeout < 0 or self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigError(f"retry times must be non-negative: {self}")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1")
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")

    def backoff(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ConfigError("attempt is 1-based")
        raw = self.backoff_base * self.backoff_factor ** (attempt - 1)
        return float(min(raw, self.backoff_cap))

    def penalty_seconds(self, nretries) -> np.ndarray:
        """Total detection + backoff time for ``nretries`` consecutive
        retries (vectorized over threads; excludes the retransmit wire
        cost, which the caller prices with its own message cost).

        ``sum_{i=1..r} (timeout + min(base * factor**(i-1), cap))`` in
        closed form, so the charge is exact however large ``r`` grows.
        """
        r = np.asarray(nretries, dtype=np.float64)
        if self.backoff_base == 0.0:
            return r * self.timeout
        f = self.backoff_factor
        if f == 1.0:
            backoff = r * min(self.backoff_base, self.backoff_cap)
        else:
            # Retries 1..k grow geometrically; k+1.. sit at the cap.
            k = np.floor(np.log(self.backoff_cap / self.backoff_base) / np.log(f)) + 1.0
            grow = np.minimum(r, np.maximum(k, 0.0))
            backoff = self.backoff_base * (f**grow - 1.0) / (f - 1.0)
            backoff += np.maximum(r - grow, 0.0) * self.backoff_cap
        return r * self.timeout + backoff


@dataclass(frozen=True)
class NicDegradation:
    """A transient NIC slowdown window on one node.

    While ``node``'s virtual clock sits in ``[start, end)``, every
    communication charge issued by its threads is multiplied by
    ``factor`` (link flapping, ECC storms, a misbehaving neighbor port).
    """

    node: int
    start: float
    end: float
    factor: float = 4.0

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ConfigError("degradation node must be >= 0")
        if not 0.0 <= self.start < self.end:
            raise ConfigError(f"degradation window must satisfy 0 <= start < end: {self}")
        if self.factor < 1.0:
            raise ConfigError("degradation factor must be >= 1")


@dataclass(frozen=True)
class CrashEvent:
    """A scheduled crash of one simulated thread.

    The crash fires at the first synchronization point (barrier or
    allreduce) after the thread's virtual clock passes ``at_time``; the
    thread spends ``recovery`` seconds restarting while every other
    thread waits, and the enclosing round is replayed from its
    checkpoint.  Each event fires at most once.
    """

    thread: int
    at_time: float
    recovery: float = 2.0e-3

    def __post_init__(self) -> None:
        if self.thread < 0:
            raise ConfigError("crash thread must be >= 0")
        if self.at_time < 0 or self.recovery < 0:
            raise ConfigError("crash times must be non-negative")


@dataclass(frozen=True)
class NodeLossEvent:
    """A scheduled *permanent* loss of one simulated node.

    Fires at the first synchronization point after any of the node's
    threads' virtual clocks pass ``at_time``.  Unlike a
    :class:`CrashEvent` the node never restarts: its owner blocks are
    gone, the membership must change, and the run either recovers
    through :mod:`repro.resilience` (reconstruct from replicas/parity,
    remap onto the survivors or a cold spare, replay the round) or
    aborts with :class:`~repro.errors.UnrecoverableLossError`.  Each
    event fires at most once; events naming an already-dead node are
    skipped.
    """

    node: int
    at_time: float

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ConfigError("lost node must be >= 0")
        if self.at_time < 0:
            raise ConfigError("loss time must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, declarative description of a run's injected faults.

    Parameters
    ----------
    seed:
        Seed for the injector's ``numpy`` Generator.  All randomness
        (which message is dropped, how many retransmits a batch needs)
        derives from it; no wall-clock entropy is ever consulted.
    loss:
        Default per-message loss probability on every node uplink.
    link_loss:
        Per-node overrides of ``loss`` (node id -> probability).
    stragglers:
        Thread id -> slowdown multiplier (>= 1).  A straggler's every
        charge — compute and communication — is stretched by its factor.
    nic_degradations, crashes:
        Transient NIC windows and scheduled crash events.
    node_losses:
        Scheduled :class:`NodeLossEvent` permanent node failures —
        membership-changing, unlike the transient ``crashes``.
    corruption:
        Silent bit-flip rate in the owner blocks of protected shared
        arrays: expected flips *per element per second of modeled
        time*.  Flips arrive as a Poisson process on the virtual clock
        and fire at synchronization points; each event is consumed once,
        so a replayed round does not re-suffer the same flip.
    payload_corruption:
        Per-record probability that an in-flight collective payload
        element (GetD/SetD/SetDMin buffer) is silently flipped on the
        wire.  Applies only to multi-node transfers.
    retry:
        The :class:`RetryPolicy` priced against lost messages.
    """

    seed: int = 0
    loss: float = 0.0
    link_loss: Mapping[int, float] = field(default_factory=dict)
    stragglers: Mapping[int, float] = field(default_factory=dict)
    nic_degradations: Tuple[NicDegradation, ...] = ()
    crashes: Tuple[CrashEvent, ...] = ()
    node_losses: Tuple[NodeLossEvent, ...] = ()
    corruption: float = 0.0
    payload_corruption: float = 0.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        for prob in (self.loss, *self.link_loss.values()):
            if not 0.0 <= prob < 1.0:
                raise ConfigError(f"loss probability must be in [0, 1): got {prob}")
        if self.corruption < 0.0:
            raise ConfigError(f"corruption rate must be >= 0: got {self.corruption}")
        if not 0.0 <= self.payload_corruption < 1.0:
            raise ConfigError(
                f"payload_corruption must be in [0, 1): got {self.payload_corruption}"
            )
        for thread, factor in self.stragglers.items():
            if thread < 0 or factor < 1.0:
                raise ConfigError(
                    f"straggler factors must be >= 1 on valid threads: {thread}: {factor}"
                )
        object.__setattr__(self, "nic_degradations", tuple(self.nic_degradations))
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "node_losses", tuple(self.node_losses))

    def check_machine(self, machine) -> None:
        """:class:`~repro.errors.ConfigError` when a node or thread the
        plan names does not exist on ``machine``."""
        nodes, threads = machine.nodes, machine.total_threads
        for node in self.link_loss:
            if not 0 <= node < nodes:
                raise ConfigError(f"link_loss node {node} out of range [0, {nodes})")
        for window in self.nic_degradations:
            if window.node >= nodes:
                raise ConfigError(f"degradation node {window.node} out of range [0, {nodes})")
        for thread in self.stragglers:
            if thread >= threads:
                raise ConfigError(f"straggler thread {thread} out of range [0, {threads})")
        for event in self.crashes:
            if event.thread >= threads:
                raise ConfigError(f"crash thread {event.thread} out of range [0, {threads})")
        for loss_event in self.node_losses:
            if loss_event.node >= nodes:
                raise ConfigError(f"lost node {loss_event.node} out of range [0, {nodes})")

    @property
    def any_faults(self) -> bool:
        """False iff the plan is a no-op (the runtime then skips the
        fault layer entirely, keeping modeled times bit-identical to a
        run with no plan at all)."""
        return bool(
            self.loss > 0.0
            or any(p > 0.0 for p in self.link_loss.values())
            or any(f > 1.0 for f in self.stragglers.values())
            or self.nic_degradations
            or self.crashes
            or self.node_losses
            or self.corruption > 0.0
            or self.payload_corruption > 0.0
        )

    @property
    def has_crashes(self) -> bool:
        return bool(self.crashes)

    @property
    def has_corruption(self) -> bool:
        return self.corruption > 0.0 or self.payload_corruption > 0.0

    @property
    def has_node_loss(self) -> bool:
        return bool(self.node_losses)

    @classmethod
    def none(cls) -> "FaultPlan":
        return cls()

    @classmethod
    def lossy(cls, loss: float, seed: int = 0, retry: RetryPolicy | None = None) -> "FaultPlan":
        """Uniform message loss on every link."""
        return cls(seed=seed, loss=loss, retry=retry or RetryPolicy())

    @classmethod
    def from_cli(
        cls,
        loss: float,
        stragglers: int,
        seed: int,
        total_threads: int,
        straggler_factor: float = 4.0,
        corruption: float = 0.0,
        payload_corruption: float = 0.0,
        node_loss_at: float = 0.0,
        node_loss_node: int = 1,
    ) -> "FaultPlan | None":
        """Build the plan behind ``--fault-loss/--fault-stragglers/
        --fault-corruption/--fault-payload-corruption/--fault-node-loss``.

        Straggler threads are drawn deterministically from ``seed`` (a
        dedicated Generator, so the choice does not perturb the
        injector's own stream).  ``node_loss_at > 0`` schedules a
        *permanent* loss of ``node_loss_node`` at that modeled time.
        Returns ``None`` when nothing is asked for, so the zero-overhead
        default path stays engaged.
        """
        if loss < 0.0:
            raise ConfigError(f"loss probability must be in [0, 1): got {loss}")
        if stragglers < 0:
            raise ConfigError(f"straggler count must be >= 0: got {stragglers}")
        if node_loss_at < 0.0:
            raise ConfigError(f"node loss time must be >= 0: got {node_loss_at}")
        if (
            loss == 0.0 and stragglers == 0 and corruption == 0.0
            and payload_corruption == 0.0 and node_loss_at == 0.0
        ):
            return None
        if stragglers > total_threads:
            raise ConfigError(
                f"cannot make {stragglers} stragglers out of {total_threads} threads"
            )
        slow: dict[int, float] = {}
        if stragglers > 0:
            picker = np.random.default_rng(seed)
            chosen = picker.choice(total_threads, size=stragglers, replace=False)
            slow = {int(t): straggler_factor for t in chosen}
        losses = (
            (NodeLossEvent(node=node_loss_node, at_time=node_loss_at),)
            if node_loss_at > 0.0 else ()
        )
        return cls(
            seed=seed,
            loss=loss,
            stragglers=slow,
            corruption=corruption,
            payload_corruption=payload_corruption,
            node_losses=losses,
        )
