"""Pluggable algorithm registry: one record per selectable solver.

Every implementation name accepted by
:func:`repro.connected_components`/:func:`repro.minimum_spanning_forest`
— and therefore by the CLI ``--impl`` flags, the service's ``impl``/
``variant`` fields, and the tuner's impl axis — resolves through this
registry.  An :class:`AlgorithmSpec` bundles what used to be scattered
if/elif knowledge:

* the solver entry point behind a uniform call signature;
* capability flags (fault injection, recovery under the round driver);
* ``searched``: whether the :mod:`repro.tuning` planner measures the
  solver.

Adding an algorithm variant is now one ``register()`` call: the
pipeline, CLI, service validation, and tuner pick it up from here.  The
Liu–Tarjan lattice (:mod:`repro.lt`) registers all twelve of its
variants this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

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
    "REGISTRY",
    "get_algorithm",
    "implementations",
    "lt_variant_names",
    "register",
]

_KINDS = ("cc", "mst")


@dataclass(frozen=True)
class AlgorithmSpec:
    """Registry record for one named implementation."""

    name: str
    kind: str
    description: str
    solve: Callable
    #: Takes a fault plan: loss, stragglers and NIC windows are charged
    #: by the runtime on every solver's messages.
    supports_faults: bool = False
    #: Solves under :func:`~repro.faults.rounds.run_rounds`, whose
    #: barriers poll the injector: crash, node-loss and corruption
    #: events fire, and integrity and node-loss redundancy recover them.
    supports_recovery: bool = False
    #: The tuning planner measures this impl at every ``t'`` candidate.
    searched: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"algorithm kind must be one of {_KINDS}, got {self.kind!r}")

    def _lacking(self, faults, integrity: bool, resilience: bool):
        """(label, capability) of the first requested protection or fault
        class this impl cannot honour, else ``None``.

        ``faults`` is the :class:`~repro.faults.FaultPlan` (or anything
        with its ``has_crashes``/``has_node_loss``/``has_corruption``
        predicates), or ``None``.  Crash, node-loss and corruption events
        only fire where the round driver polls for them, so an impl
        without ``supports_recovery`` refuses them instead of dropping
        them silently.
        """
        fired = faults is not None
        for wanted, label, capability in (
            (fired, "fault injection", "supports_faults"),
            (fired and faults.has_crashes, "thread-crash injection", "supports_recovery"),
            (fired and faults.has_node_loss, "node-loss injection", "supports_recovery"),
            (fired and faults.has_corruption, "silent-corruption injection", "supports_recovery"),
            (integrity, "integrity protection", "supports_recovery"),
            (resilience, "node-loss resilience", "supports_recovery"),
        ):
            if wanted and not getattr(self, capability):
                return label, capability
        return None

    def supports(self, faults=None, integrity=False, resilience=False) -> bool:
        """Whether this impl can run ``faults`` with every protection asked for."""
        return self._lacking(faults, integrity, resilience) is None

    def require(self, faults=None, integrity=False, resilience=False) -> None:
        """:class:`~repro.errors.ConfigError` naming the first fault class
        or protection asked for that this impl cannot honour, and the
        impls that can."""
        lacking = self._lacking(faults, integrity, resilience)
        if lacking is not None:
            label, capability = lacking
            able = tuple(
                s.name for (k, _), s in REGISTRY.items()
                if k == self.kind and getattr(s, capability)
            )
            raise ConfigError(
                f"{label} is not supported for {self.kind.upper()} impl {self.name!r};"
                f" use one of {able}"
            )


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
    supports_faults=True,
    supports_recovery=True,
    # Searched although it never wins: it is the paper's CC, and an
    # explicit impl="collective" with t'="auto" reads its own measured t'.
    searched=True,
))

register(AlgorithmSpec(
    name="sv",
    kind="cc",
    description="Shiloach-Vishkin with collectives (star detection + stagnant-star hook)",
    solve=lambda graph, machine, opts, tprime, sort_method, faults, adapter, integrity, resilience:
        solve_cc_sv(
            graph, machine, opts, tprime, sort_method,
            faults=faults, integrity=integrity, resilience=resilience,
        ),
    supports_faults=True,
    supports_recovery=True,
    # Runnable by name, not probed: it never won a measured CC plan, and
    # its cross-round hook cycle can fail a probe.
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


#: The Liu–Tarjan variants the planner probes: the only ones that ever
#: won a measured CC plan or a full-size solve (``lt-psa`` only on
#: one-node machines).
_SEARCHED_LT = frozenset({"lt-ps", "lt-psa", "lt-pf", "lt-es"})


def _lt_solve(variant):
    def solve(graph, machine, opts, tprime, sort_method, faults, adapter, integrity, resilience):
        return solve_cc_lt(
            graph, machine, opts, tprime, sort_method,
            variant=variant, faults=faults, integrity=integrity, resilience=resilience,
        )
    return solve


for _variant in ALL_VARIANTS:
    register(AlgorithmSpec(
        name=_variant.name,
        kind="cc",
        description=f"Liu–Tarjan {_variant.describe()}",
        solve=_lt_solve(_variant),
        supports_faults=True,
        supports_recovery=True,
        # lt-rf is searched as `collective`, the same solve; the variants
        # outside _SEARCHED_LT stay runnable by name.
        searched=_variant.name in _SEARCHED_LT,
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
    supports_faults=True,
    supports_recovery=True,
    searched=True,
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
