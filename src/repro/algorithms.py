"""Pluggable algorithm registry: one record per selectable solver.

Every implementation name accepted by
:func:`repro.connected_components`/:func:`repro.minimum_spanning_forest`
— and therefore by the CLI ``--impl`` flags, the service's ``impl``/
``variant`` fields, and the tuner's impl lattice — resolves through this
registry.  An :class:`AlgorithmSpec` bundles what used to be scattered
if/elif knowledge:

* the solver entry point behind a uniform call signature;
* capability flags (fault injection, integrity protection, the online
  adapter, whether Section V flags/t' apply at all);
* an optional :class:`TuningEntry` describing how the
  :mod:`repro.tuning` planner should include it in the search lattice.

Adding an algorithm variant is now one ``register()`` call: the
pipeline, CLI, service validation, and tuner pick it up from here.  The
Liu–Tarjan lattice (:mod:`repro.lt`) registers all twelve of its
variants this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .cc.cgm import solve_cc_cgm
from .cc.collective import solve_cc_collective
from .cc.naive_upc import solve_cc_naive_upc
from .cc.sequential import solve_cc_sequential
from .cc.smp import solve_cc_smp
from .cc.sv import solve_cc_sv
from .errors import ConfigError
from .lt.variants import ALL_VARIANTS
from .lt.solver import solve_cc_lt
from .mst.collective import solve_mst_collective
from .mst.naive_upc import solve_mst_naive_upc
from .mst.sequential import solve_mst_sequential
from .mst.smp import solve_mst_smp

__all__ = [
    "AlgorithmSpec",
    "TuningEntry",
    "REGISTRY",
    "get_algorithm",
    "implementations",
    "lt_variant_names",
    "register",
]

_KINDS = ("cc", "mst")


@dataclass(frozen=True)
class TuningEntry:
    """How the planner's analytic stage prices and searches one impl.

    ``lattice`` is ``"full"`` (search every flag combination — the
    paper's own configurations) or ``"all-flags"`` (search only the
    all-optimizations column across t' candidates — used for the LT
    variants, whose flags are strictly beneficial inside the shared
    collectives; this keeps the lattice bounded while still ranking the
    variant).  The three cost hints parameterize the shared per-round
    price list: edge-list collectives per round, pointer-jump rounds per
    iteration, and a round-count multiplier relative to the grafting
    solver.
    """

    lattice: str = "full"
    edge_collectives: float = 4.0
    jump_rounds: float = 2.0
    round_factor: float = 1.0


@dataclass(frozen=True)
class AlgorithmSpec:
    """Registry record for one named implementation."""

    name: str
    kind: str
    description: str
    solve: Callable
    supports_flags: bool = False
    supports_faults: bool = False
    supports_integrity: bool = False
    supports_adapter: bool = False
    supports_resilience: bool = False
    tuning: Optional[TuningEntry] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"algorithm kind must be one of {_KINDS}, got {self.kind!r}")


#: (kind, name) -> AlgorithmSpec, in registration order (the order the
#: public ``*_IMPLS`` tuples expose).
REGISTRY: "Dict[Tuple[str, str], AlgorithmSpec]" = {}


def register(spec: AlgorithmSpec) -> AlgorithmSpec:
    if (spec.kind, spec.name) in REGISTRY:
        raise ConfigError(f"duplicate algorithm registration {spec.kind}/{spec.name}")
    REGISTRY[(spec.kind, spec.name)] = spec
    return spec


def get_algorithm(kind: str, name: str) -> AlgorithmSpec:
    """Resolve an impl name (ConfigError naming the valid set on junk)."""
    spec = REGISTRY.get((kind, name))
    if spec is None:
        raise ConfigError(
            f"unknown {kind.upper()} impl {name!r}; expected one of"
            f" {implementations(kind) + ('auto',)}"
        )
    return spec


def implementations(kind: str) -> tuple:
    """Registered impl names for ``kind``, in registration order
    (``'auto'`` is a pipeline mode, not an algorithm — it is appended by
    the public ``CC_IMPLS``/``MST_IMPLS`` tuples, not listed here)."""
    return tuple(name for (k, name) in REGISTRY if k == kind)


def lt_variant_names() -> tuple:
    """The registered Liu–Tarjan variant names (all start ``lt-``)."""
    return tuple(n for n in implementations("cc") if n.startswith("lt-"))


# ---------------------------------------------------------------------------
# Connected components
# ---------------------------------------------------------------------------

register(AlgorithmSpec(
    name="collective",
    kind="cc",
    description="the paper's optimized CC: grafting + full pointer jumping on GetD/SetD",
    solve=lambda graph, machine, opts, tprime, sort_method, faults, adapter, integrity, resilience:
        solve_cc_collective(
            graph, machine, opts, tprime, sort_method,
            faults=faults, adapter=adapter, integrity=integrity, resilience=resilience,
        ),
    supports_flags=True,
    supports_faults=True,
    supports_integrity=True,
    supports_adapter=True,
    supports_resilience=True,
    tuning=TuningEntry(lattice="full"),
))

register(AlgorithmSpec(
    name="sv",
    kind="cc",
    description="Shiloach-Vishkin with collectives (star detection + stagnant-star hook)",
    solve=lambda graph, machine, opts, tprime, sort_method, faults, adapter, integrity, resilience:
        solve_cc_sv(graph, machine, opts, tprime, sort_method),
    supports_flags=True,
    tuning=TuningEntry(lattice="full", round_factor=1.35),
))

register(AlgorithmSpec(
    name="naive",
    kind="cc",
    description="literal UPC translation: blocking fine-grained remote accesses",
    solve=lambda graph, machine, opts, tprime, sort_method, faults, adapter, integrity, resilience:
        solve_cc_naive_upc(graph, machine, faults=faults),
    supports_faults=True,
))

register(AlgorithmSpec(
    name="smp",
    kind="cc",
    description="single-node shared-memory baseline",
    solve=lambda graph, machine, opts, tprime, sort_method, faults, adapter, integrity, resilience:
        solve_cc_smp(graph, machine, faults=faults),
    supports_faults=True,
))

register(AlgorithmSpec(
    name="sequential",
    kind="cc",
    description="sequential reference (union-find semantics via the shared grafting rule)",
    solve=lambda graph, machine, opts, tprime, sort_method, faults, adapter, integrity, resilience:
        solve_cc_sequential(graph, machine),
))

register(AlgorithmSpec(
    name="cgm",
    kind="cc",
    description="round-minimizing CGM baseline the paper argues against",
    solve=lambda graph, machine, opts, tprime, sort_method, faults, adapter, integrity, resilience:
        solve_cc_cgm(graph, machine),
))


def _lt_solve(variant):
    def solve(graph, machine, opts, tprime, sort_method, faults, adapter, integrity, resilience):
        return solve_cc_lt(
            graph, machine, opts, tprime, sort_method,
            variant=variant, faults=faults, integrity=integrity, resilience=resilience,
        )
    return solve


#: Analytic cost hints per LT axis (see TuningEntry): edge collectives
#: per round by connect rule, +2 for alter; pointer-jump rounds per
#: iteration; round-count multipliers — partial-shortcut variants run
#: more, cheaper rounds.  Chosen so an LT configuration is never priced
#: below the grafting solver at identical flags (probes, not the
#: analytic fiction, decide real rankings).
_LT_EDGE_COLLECTIVES = {"parent": 3.0, "extended": 3.0, "root": 5.0}
_LT_ROUND_FACTOR = {
    ("parent", "partial"): 2.2, ("parent", "full"): 1.35,
    ("extended", "partial"): 2.3, ("extended", "full"): 1.4,
    ("root", "partial"): 2.0, ("root", "full"): 1.15,
}

for _variant in ALL_VARIANTS:
    register(AlgorithmSpec(
        name=_variant.name,
        kind="cc",
        description=f"Liu–Tarjan {_variant.describe()}",
        solve=_lt_solve(_variant),
        supports_flags=True,
        supports_faults=True,
        supports_integrity=True,
        supports_resilience=True,
        tuning=TuningEntry(
            lattice="all-flags",
            edge_collectives=_LT_EDGE_COLLECTIVES[_variant.connect]
            + (2.0 if _variant.alter else 0.0),
            jump_rounds=1.0 if _variant.shortcut == "partial" else 2.0,
            round_factor=_LT_ROUND_FACTOR[(_variant.connect, _variant.shortcut)],
        ),
    ))


# ---------------------------------------------------------------------------
# Minimum spanning forest
# ---------------------------------------------------------------------------

register(AlgorithmSpec(
    name="collective",
    kind="mst",
    description="lock-free SetDMin Borůvka on the collectives",
    solve=lambda graph, machine, opts, tprime, sort_method, faults, adapter, integrity, resilience:
        solve_mst_collective(
            graph, machine, opts, tprime, sort_method,
            faults=faults, adapter=adapter, integrity=integrity, resilience=resilience,
        ),
    supports_flags=True,
    supports_faults=True,
    supports_integrity=True,
    supports_adapter=True,
    supports_resilience=True,
    tuning=TuningEntry(lattice="full"),
))

register(AlgorithmSpec(
    name="naive",
    kind="mst",
    description="literal UPC translation with per-vertex locks",
    solve=lambda graph, machine, opts, tprime, sort_method, faults, adapter, integrity, resilience:
        solve_mst_naive_upc(graph, machine, faults=faults),
    supports_faults=True,
))

register(AlgorithmSpec(
    name="smp",
    kind="mst",
    description="single-node lock-based Borůvka baseline",
    solve=lambda graph, machine, opts, tprime, sort_method, faults, adapter, integrity, resilience:
        solve_mst_smp(graph, machine, faults=faults),
    supports_faults=True,
))

for _algo in ("kruskal", "prim", "boruvka"):
    register(AlgorithmSpec(
        name=_algo,
        kind="mst",
        description=f"sequential {_algo}",
        solve=(lambda a: lambda graph, machine, opts, tprime, sort_method,
               faults, adapter, integrity, resilience:
               solve_mst_sequential(graph, machine, algorithm=a))(_algo),
    ))
