"""Declarative effects registry for the runtime/collective surface.

Every API an algorithm module may call on the simulated runtime is
described here as a small record of *what it does to the model*:

``sync``
    participates in the collective/barrier sequence — simulated threads
    must all reach it, in the same order (the SY rules match these);
``charges``
    accounts modeled time on the virtual clocks — a charge "covers" the
    shared data it moves (the CH rules look for a dominating one);
``comm``
    moves bytes between simulated nodes;
``faultable``
    can raise a fault-path exception (:class:`~repro.errors.FaultError`,
    :class:`~repro.errors.ThreadCrash`,
    :class:`~repro.errors.IntegrityError`) under an active fault plan —
    the FX rules require these to sit inside a recovery scope in
    checkpointing solvers;
``raw_comm``
    an *uncharged* data-movement primitive (``SharedArray.gather`` and
    friends) that is only sound when a charge dominates it;
``taints``
    returns per-thread data derived from shared state — control flow
    decided by such a value can diverge across simulated threads;
``uniform``
    returns a value guaranteed identical on every simulated thread
    (collective reductions) — the blessed way to decide loop exits.

It is the verifier's only source for what a call syncs, charges or
moves raw.  The registry is *declarative on purpose*: the drift test in
``tests/test_analysis_flow.py`` reflects over the real
:class:`~repro.runtime.PGASRuntime`, :mod:`repro.collectives`,
:class:`~repro.integrity.monitor.IntegrityMonitor`,
:class:`~repro.faults.checkpoint.RoundCheckpointer`, and
:class:`~repro.runtime.shared_array.SharedArray` surfaces and fails when
an API lands unregistered (or a registered one disappears), so the
verifier can never silently model a stale runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Effect", "EFFECTS", "effect_of", "registry_drift"]

#: Owner tags checked by :func:`registry_drift`.
_OWNERS = (
    "runtime",
    "collectives",
    "shared_array",
    "integrity",
    "checkpoint",
    "resilience",
)


@dataclass(frozen=True)
class Effect:
    """Static effect summary of one runtime/collective API."""

    owner: str
    sync: bool = False
    charges: bool = False
    comm: bool = False
    faultable: bool = False
    raw_comm: bool = False
    taints: bool = False
    uniform: bool = False
    #: Token emitted into the collective-sequence lattice (sync APIs only).
    token: str = field(default="")

    def __post_init__(self) -> None:
        if self.owner not in _OWNERS:
            raise ValueError(f"unknown effect owner {self.owner!r}")
        if self.sync and not self.token:
            raise ValueError("sync effects need a sequence token")


def _rt(**kw) -> Effect:
    return Effect(owner="runtime", **kw)


def _coll(**kw) -> Effect:
    return Effect(owner="collectives", **kw)


def _arr(**kw) -> Effect:
    return Effect(owner="shared_array", **kw)


def _integ(**kw) -> Effect:
    return Effect(owner="integrity", **kw)


def _ck(**kw) -> Effect:
    return Effect(owner="checkpoint", **kw)


def _res(**kw) -> Effect:
    return Effect(owner="resilience", **kw)


#: name -> Effect.  Names are matched on the *last* component of a call
#: (``rt.barrier`` -> ``barrier``).  :mod:`repro.kernels` has no records:
#: its routines are pure array functions that take no runtime, always
#: called as attributes, which the verifier treats as effect-free.
EFFECTS: dict[str, Effect] = {
    # -- PGASRuntime -------------------------------------------------------
    "barrier": _rt(sync=True, faultable=True, token="barrier"),
    "allreduce_flag": _rt(
        sync=True, charges=True, faultable=True, uniform=True, token="allreduce"
    ),
    "shared_array": _rt(charges=True),
    "protect_array": _rt(),
    "charge": _rt(charges=True),
    "charge_thread": _rt(charges=True),
    "charge_comm": _rt(charges=True, comm=True),
    "charge_message_faults": _rt(charges=True, comm=True, faultable=True),
    "charge_fine_grained": _rt(charges=True, comm=True, faultable=True),
    "fine_grained_read": _rt(charges=True, comm=True, faultable=True, taints=True),
    "fine_grained_write": _rt(charges=True, comm=True, faultable=True),
    "split_local_remote": _rt(),
    "local_random_access": _rt(charges=True),
    "local_stream": _rt(charges=True),
    "local_ops": _rt(charges=True),
    "owner_block_read": _rt(charges=True, taints=True),
    "owner_block_write": _rt(charges=True),
    "owner_masked_write": _rt(charges=True),
    "owner_indexed_write": _rt(charges=True),
    "phase_start": _rt(),
    "phase_end": _rt(),
    "run_phase": _rt(),
    "fork": _rt(),
    # -- repro.collectives -------------------------------------------------
    "getd": _coll(
        sync=True, charges=True, comm=True, faultable=True, taints=True, token="getd"
    ),
    "setd": _coll(
        sync=True, charges=True, comm=True, faultable=True, taints=True, token="setd"
    ),
    "setdmin": _coll(
        sync=True, charges=True, comm=True, faultable=True, taints=True, token="setdmin"
    ),
    "exchange_counts": _coll(charges=True, comm=True),
    "charge_setup": _coll(charges=True),
    # The ``ids`` charge alone (free on a cache hit); it returns nothing,
    # since the SMatrix kernel derives owners from the targets itself.
    "charge_target_ids": _coll(charges=True),
    "offload_hits": _coll(charges=True),
    # Helpers below derive outputs from their *arguments* — taint flows
    # through naturally (tainted args => tainted result), so they carry
    # no intrinsic taint of their own.
    "send_matrix": _coll(),
    "position_matrix": _coll(),
    "build_transfer_plan": _coll(),
    "check_requests": _coll(),
    "linear_schedule": _coll(),
    "circular_schedule": _coll(),
    "max_step_contention": _coll(),
    "is_contention_free": _coll(),
    # -- SharedArray: uncharged primitives (sound only under a dominating
    # charge — the CH rules police exactly this) --------------------------
    "gather": _arr(raw_comm=True, taints=True),
    "scatter": _arr(raw_comm=True, taints=True),
    "scatter_min": _arr(raw_comm=True, taints=True),
    "scatter_store_min": _arr(raw_comm=True, taints=True),
    "snapshot": _arr(taints=True),
    "local_view": _arr(taints=True),
    # Layout queries: partition geometry, identical on every simulated
    # thread — uniform by construction, never data-derived.
    "local_range": _arr(),
    "local_sizes": _arr(),
    "owner_thread": _arr(),
    "owner_node": _arr(),
    "node_working_set_bytes": _arr(),
    # -- IntegrityMonitor (charges its passes internally; verification can
    # raise IntegrityError for the repair path) ---------------------------
    "track": _integ(charges=True),
    "note_write": _integ(charges=True),
    "resync": _integ(charges=True),
    "on_barrier": _integ(charges=True, faultable=True),
    "verify_cc_round": _integ(charges=True, faultable=True),
    "verify_lt_round": _integ(charges=True, faultable=True),
    "verify_star_round": _integ(charges=True, faultable=True),
    "verify_mst_selection": _integ(charges=True, faultable=True),
    "guard_payload": _integ(charges=True, faultable=True),
    # -- RoundCheckpointer -------------------------------------------------
    "save": _ck(charges=True),
    "restore": _ck(charges=True, taints=True),
    # -- ResilientSession (owner-block redundancy + epoch recovery; see
    # repro.resilience).  enroll/commit_round ship replica traffic as
    # real charged communication; on_loss raises NodeLoss (or
    # UnrecoverableLossError) into the recovery scope; recover_loss
    # restores checkpoint state (tainted, like restore) and rebuilds the
    # run on the post-loss membership. -------------------------------------
    "enroll": _res(charges=True, comm=True),
    "commit_round": _res(charges=True, comm=True),
    "mark_write": _res(),
    "on_loss": _res(charges=True, faultable=True),
    "recover_loss": _res(charges=True, comm=True, faultable=True, taints=True),
}


def effect_of(name: str) -> Effect | None:
    """The registered effect for a bare call name, or ``None``."""
    return EFFECTS.get(name)


def _public_routines(obj) -> set[str]:
    import inspect

    names = set()
    for name, member in inspect.getmembers(obj):
        if name.startswith("_"):
            continue
        if inspect.isfunction(member) or inspect.ismethod(member):
            names.add(name)
    return names


def registry_drift() -> list[str]:
    """Compare the registry against the live runtime/collective surface.

    Returns a list of human-readable problems — empty when the registry
    is current.  Two directions are checked: *unregistered* (a public
    API exists with no effect record — the verifier would treat calls to
    it as effect-free, silently unsound) and *stale* (a record names an
    API that no longer exists under its claimed owner — the registry is
    describing a runtime that is gone).
    """
    import repro.collectives as collectives
    from repro.faults.checkpoint import RoundCheckpointer
    from repro.integrity.monitor import IntegrityMonitor, guard_payload  # noqa: F401
    from repro.resilience.session import ResilientSession
    from repro.runtime.runtime import PGASRuntime
    from repro.runtime.shared_array import SharedArray

    problems: list[str] = []
    surfaces: dict[str, set[str]] = {
        "runtime": _public_routines(PGASRuntime),
        "shared_array": _public_routines(SharedArray),
        "integrity": _public_routines(IntegrityMonitor) | {"guard_payload"},
        "checkpoint": _public_routines(RoundCheckpointer),
        "resilience": _public_routines(ResilientSession),
        "collectives": {
            name
            for name in collectives.__all__
            if callable(getattr(collectives, name))
            and not isinstance(getattr(collectives, name), type)
        },
    }
    for owner, live in surfaces.items():
        registered = {name for name, eff in EFFECTS.items() if eff.owner == owner}
        for name in sorted(live - registered):
            problems.append(
                f"unregistered {owner} API {name!r}: add an Effect record to "
                "repro.analysis.effects.EFFECTS (what does it sync/charge/move?)"
            )
        for name in sorted(registered - live):
            problems.append(
                f"stale registry entry {name!r}: no such {owner} API exists anymore"
            )
    return problems
