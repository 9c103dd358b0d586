"""Job model: what a tenant submits and what the service tracks.

A :class:`JobSpec` is the validated, immutable description parsed from a
``/submit`` request body; a :class:`Job` is the mutable server-side
record that moves through the lifecycle::

    queued -> running -> done
                      -> failed     (retriable or not)
           -> cancelled             (deadline exceeded; retriable)
           -> shed                  (evicted for higher-priority work; retriable)

Validation raises :class:`~repro.errors.UsageError` naming the offending
field, which the HTTP layer maps to ``400``.  Every *served* result
carries the verified-result contract: a ``verify`` block (certificate
status) and a ``plan`` block (provenance of the configuration
that produced it) — see ``docs/service.md``.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Optional

from ..errors import UsageError

__all__ = ["JobSpec", "Job", "JobState", "PRIORITIES", "TERMINAL_STATES"]

#: Priority names, lowest first.  Shedding removes the *lowest* first.
PRIORITIES = ("low", "normal", "high")

_ALGOS = ("cc", "mst", "bfs")
_KINDS = ("random", "hybrid", "powerlaw")

#: Hard input ceiling: admission control starts at the parser — one
#: tenant must not be able to wedge a worker with an hour-long solve.
MAX_N = 200_000


class JobState:
    """Lifecycle states (plain strings so they serialize as-is)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    SHED = "shed"


TERMINAL_STATES = (JobState.DONE, JobState.FAILED, JobState.CANCELLED, JobState.SHED)


def _field(payload: dict, name: str, kind, default):
    """Pull + type-check one request field (UsageError on junk)."""
    value = payload.get(name, default)
    if value is None:
        return None
    try:
        if kind is bool:
            if not isinstance(value, bool):
                raise TypeError
            return value
        if kind is int and isinstance(value, bool):
            raise TypeError
        return kind(value)
    except (TypeError, ValueError):
        raise UsageError(f"field {name!r} must be {kind.__name__}: got {value!r}") from None


@dataclass(frozen=True)
class JobSpec:
    """Validated description of one solve request."""

    tenant: str = "default"
    algo: str = "cc"
    n: int = 2048
    density: float = 4.0
    kind: str = "random"
    seed: int = 0
    machine: str = "4x2"
    impl: str = "collective"
    #: CC algorithm variant (a registered Liu–Tarjan name, e.g.
    #: ``lt-rfa``); sugar for ``impl`` — the two are mutually exclusive
    #: in a request body, and ``variant`` wins when both survive a
    #: journal round-trip.
    variant: Optional[str] = None
    opts: str = "all"
    tprime: "int | str" = 2
    priority: str = "normal"
    deadline_s: Optional[float] = None
    integrity: bool = False
    loss: float = 0.0
    stragglers: int = 0
    corruption: float = 0.0
    payload_corruption: float = 0.0
    fault_seed: int = 0
    #: Modeled time (seconds) at which ``node_loss_node`` is permanently
    #: lost; 0 = no loss.  Pair with ``redundancy`` or the job fails.
    node_loss_at: float = 0.0
    node_loss_node: int = 1
    #: Owner-block redundancy mode ("" = off, "buddy" | "parity").
    redundancy: str = ""
    spares: int = 0
    source: int = 0  # BFS root

    def __post_init__(self) -> None:
        if not self.tenant or not isinstance(self.tenant, str) or len(self.tenant) > 64:
            raise UsageError(f"field 'tenant' must be a non-empty string <= 64 chars: got {self.tenant!r}")
        if self.algo not in _ALGOS:
            raise UsageError(f"field 'algo' must be one of {_ALGOS}: got {self.algo!r}")
        if self.kind not in _KINDS:
            raise UsageError(f"field 'kind' must be one of {_KINDS}: got {self.kind!r}")
        if not 2 <= self.n <= MAX_N:
            raise UsageError(f"field 'n' must be in [2, {MAX_N}]: got {self.n}")
        if not 0.5 <= self.density <= 64.0:
            raise UsageError(f"field 'density' must be in [0.5, 64]: got {self.density}")
        if self.priority not in PRIORITIES:
            raise UsageError(f"field 'priority' must be one of {PRIORITIES}: got {self.priority!r}")
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise UsageError(f"field 'deadline_s' must be > 0: got {self.deadline_s}")
        if self.tprime != "auto" and (not isinstance(self.tprime, int) or self.tprime < 1):
            raise UsageError(f"field 'tprime' must be a positive int or 'auto': got {self.tprime!r}")
        if not 0.0 <= self.loss < 1.0:
            raise UsageError(f"field 'loss' must be in [0, 1): got {self.loss}")
        if self.stragglers < 0:
            raise UsageError(f"field 'stragglers' must be >= 0: got {self.stragglers}")
        if self.corruption < 0 or self.payload_corruption < 0:
            raise UsageError("corruption rates must be >= 0")
        if self.node_loss_at < 0:
            raise UsageError(f"field 'node_loss_at' must be >= 0: got {self.node_loss_at}")
        if self.node_loss_node < 0:
            raise UsageError(f"field 'node_loss_node' must be >= 0: got {self.node_loss_node}")
        if self.redundancy not in ("", "buddy", "parity"):
            raise UsageError(
                f"field 'redundancy' must be '', 'buddy' or 'parity': got {self.redundancy!r}"
            )
        if self.spares < 0:
            raise UsageError(f"field 'spares' must be >= 0: got {self.spares}")
        if self.algo == "bfs" and (
            self.loss or self.stragglers or self.corruption
            or self.payload_corruption or self.integrity
            or self.node_loss_at or self.redundancy
        ):
            raise UsageError("fault injection and integrity are only supported for cc/mst jobs")
        if self.variant is not None:
            if not isinstance(self.variant, str) or not self.variant:
                raise UsageError(f"field 'variant' must be a non-empty string: got {self.variant!r}")
            if self.algo != "cc":
                raise UsageError(
                    f"field 'variant' is only supported for cc jobs: got algo {self.algo!r}"
                )

    @property
    def m(self) -> int:
        return int(self.density * self.n)

    @property
    def priority_rank(self) -> int:
        return PRIORITIES.index(self.priority)

    @property
    def effective_impl(self) -> str:
        """The implementation that actually runs (``variant`` wins)."""
        return self.variant if self.variant is not None else self.impl

    @property
    def has_faults(self) -> bool:
        return bool(
            self.loss or self.stragglers or self.corruption
            or self.payload_corruption or self.node_loss_at
        )

    def graph_fingerprint(self) -> str:
        """Input-identity key for graph and plan reuse across jobs."""
        return f"{self.kind}:n{self.n}:m{self.m}:s{self.seed}"

    @classmethod
    def from_payload(cls, payload: dict) -> "JobSpec":
        if not isinstance(payload, dict):
            raise UsageError("request body must be a JSON object")
        known = {
            "tenant", "algo", "n", "density", "kind", "seed", "machine", "impl",
            "variant", "opts", "tprime", "priority", "deadline_s", "integrity", "loss",
            "stragglers", "corruption", "payload_corruption", "fault_seed",
            "node_loss_at", "node_loss_node", "redundancy", "spares", "source",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise UsageError(f"unknown field(s) {unknown}; accepted: {sorted(known)}")
        if "variant" in payload and "impl" in payload:
            raise UsageError("fields 'variant' and 'impl' are mutually exclusive; send one")
        tprime = payload.get("tprime", 2)
        if tprime != "auto":
            tprime = _field(payload, "tprime", int, 2)
        deadline = payload.get("deadline_s")
        return cls(
            tenant=str(payload.get("tenant", "default")),
            algo=str(payload.get("algo", "cc")),
            n=_field(payload, "n", int, 2048),
            density=_field(payload, "density", float, 4.0),
            kind=str(payload.get("kind", "random")),
            seed=_field(payload, "seed", int, 0),
            machine=str(payload.get("machine", "4x2")),
            impl=str(payload.get("impl", "collective")),
            variant=None if payload.get("variant") is None else str(payload["variant"]),
            opts=str(payload.get("opts", "all")),
            tprime=tprime,
            priority=str(payload.get("priority", "normal")),
            deadline_s=None if deadline is None else _field(payload, "deadline_s", float, None),
            integrity=_field(payload, "integrity", bool, False),
            loss=_field(payload, "loss", float, 0.0),
            stragglers=_field(payload, "stragglers", int, 0),
            corruption=_field(payload, "corruption", float, 0.0),
            payload_corruption=_field(payload, "payload_corruption", float, 0.0),
            fault_seed=_field(payload, "fault_seed", int, 0),
            node_loss_at=_field(payload, "node_loss_at", float, 0.0),
            node_loss_node=_field(payload, "node_loss_node", int, 1),
            redundancy=str(payload.get("redundancy", "")),
            spares=_field(payload, "spares", int, 0),
            source=_field(payload, "source", int, 0),
        )

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)


@dataclass
class Job:
    """Mutable server-side record for one submitted job."""

    spec: JobSpec
    job_id: str = ""
    state: str = JobState.QUEUED
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    deadline_at: Optional[float] = None  # monotonic
    attempts: int = 0
    retriable: bool = False
    error: Optional[str] = None
    result: Optional[dict] = None
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self) -> None:
        if not self.job_id:
            # Random ids: a restarted server must never mint an id that
            # collides with a journaled job from a previous incarnation.
            self.job_id = f"job-{uuid.uuid4().hex[:12]}"
        if not self.submitted_at:
            self.submitted_at = time.time()
        if self.spec.deadline_s is not None and self.deadline_at is None:
            self.deadline_at = time.monotonic() + self.spec.deadline_s

    def deadline_exceeded(self, now: Optional[float] = None) -> bool:
        if self.deadline_at is None:
            return False
        return (time.monotonic() if now is None else now) > self.deadline_at

    def transition(self, state: str, **fields) -> None:
        with self._lock:
            self.state = state
            for name, value in fields.items():
                setattr(self, name, value)

    def status_dict(self) -> dict:
        """The ``/status/<id>`` body (result payload omitted)."""
        with self._lock:
            latency = None
            if self.finished_at is not None:
                latency = self.finished_at - self.submitted_at
            return {
                "job_id": self.job_id,
                "tenant": self.spec.tenant,
                "algo": self.spec.algo,
                "priority": self.spec.priority,
                "state": self.state,
                "attempts": self.attempts,
                "retriable": self.retriable,
                "error": self.error,
                "latency_s": latency,
            }

    def result_dict(self) -> Optional[dict]:
        with self._lock:
            return dict(self.result) if self.result is not None else None
