"""Plan search: pick (impl, t') for a machine × input pair by measurement.

The flags are not searched.  Figs. 5-6 add the Section V optimizations
one at a time and every bar is lower than the last, so each plan uses
the paper's "Optimized" configuration (:func:`optimized_flags`: all
flags for CC, all but ``offload`` for MST).  What decides the outcome
is the solver and ``t'``, and every point of that grid is measured, not
predicted:

* each searched solver (the registry's ``searched`` specs) is solved
  once on a small replica input: same graph family, same m/n density,
  generated from a fixed seed, on a machine whose cache and per-call
  costs are scaled by the same factor as the input (the
  calibrated-scaling invariance of :mod:`repro.core.calibration` —
  modeled time is then ~linear in n, so the small-replica ranking is
  the full-size ranking);
* the solve runs inside a :func:`~repro.runtime.clocks.recording`
  block, and replaying its :class:`~repro.runtime.clocks.ClockTape`
  prices every :func:`tprime_candidates` point.  ``t'`` never changes
  what a solve computes, only what its two local-serve charges cost, so
  each replayed ``sim_time`` is bit for bit the one a full solve at
  that ``t'`` reports.

The result is a :class:`TuningPlan`: every impl × ``t'`` with its
measured modeled time, ranked, with ``entries[0]`` the selected
configuration.  Plans are value objects — deterministic,
JSON-serializable, cacheable (:mod:`repro.tuning.cache`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..algorithms import REGISTRY, lt_variant_names
from ..core.optimizations import OptimizationFlags
from ..errors import ConfigError
from ..graph.edgelist import EdgeList
from ..graph.generators import FAMILIES, generate, with_random_weights
from ..runtime.clocks import recording
from ..runtime.cost import CostModel
from ..runtime.machine import MachineConfig, scaled_cache
from ..scheduling.cache_model import tprime_candidates

__all__ = [
    "Workload",
    "PlanEntry",
    "TuningPlan",
    "build_plan",
    "optimized_flags",
    "PROBE_N_CAP",
    "PROBE_SEED",
]

#: Probe replicas never exceed this vertex count — large enough that the
#: per-round volumes dwarf startup noise, small enough that one probe
#: solve per searched solver stays well under a second of wall time.
PROBE_N_CAP = 3000
#: Seed for probe replica generation (fixed: plans must be deterministic).
PROBE_SEED = 2010


@dataclass(frozen=True)
class Workload:
    """What the tuner is planning for: algorithm × input shape.

    ``graph_kind`` names the generator family (``random``, ``hybrid``,
    ...); the planner probes on a small replica drawn from the same
    family so skew characteristics (hub vertices, label concentration)
    carry over.  Kinds without a registered generator fall back to
    ``random`` at the same density.
    """

    kind: str  # "cc" | "mst"
    n: int
    m: int
    graph_kind: str = "random"

    def __post_init__(self) -> None:
        if self.kind not in ("cc", "mst"):
            raise ConfigError(f"workload kind must be 'cc' or 'mst', got {self.kind!r}")
        if self.n < 1 or self.m < 0:
            raise ConfigError(f"invalid workload sizes n={self.n}, m={self.m}")

    def key(self) -> str:
        return f"{self.kind}:{self.graph_kind}:n{self.n}:m{self.m}"


@dataclass(frozen=True)
class PlanEntry:
    """One searched configuration and its measured cost: ``ms`` is the
    replica solve's modeled milliseconds at this ``t'``, rescaled to the
    *full* workload size."""

    impl: str
    opts_key: str
    tprime: int
    ms: float

    def opts(self) -> OptimizationFlags:
        return OptimizationFlags.parse(self.opts_key)

    def config_label(self) -> str:
        return f"{self.impl}/{self.opts_key}/t'={self.tprime}"


@dataclass(frozen=True)
class TuningPlan:
    """Ranked configurations for one machine × workload pair."""

    machine_key: str
    workload: Workload
    probe_n: int
    entries: tuple  # of PlanEntry, ranked best first
    lattice_size: int = 0

    @property
    def selected(self) -> PlanEntry:
        if not self.entries:
            raise ConfigError("empty tuning plan")
        return self.entries[0]

    def choose(self, impl="auto", tprime="auto") -> PlanEntry:
        """The best measured entry consistent with every explicit argument
        (``"auto"`` leaves that axis free).

        An explicit value the plan holds no measurement for — an impl it
        did not search, a ``t'`` off its grid — constrains nothing.  The
        caller keeps its explicit values and takes the ``"auto"`` ones
        from the returned entry.
        """
        if impl != "auto" and all(e.impl != impl for e in self.entries):
            impl = "auto"
        if tprime != "auto" and all(e.tprime != tprime for e in self.entries):
            tprime = "auto"
        for entry in self.entries:
            if impl in ("auto", entry.impl) and tprime in ("auto", entry.tprime):
                return entry
        return self.selected

    def to_dict(self) -> dict:
        return {
            "version": 2,
            "machine_key": self.machine_key,
            "kind": self.workload.kind,
            "n": self.workload.n,
            "m": self.workload.m,
            "graph_kind": self.workload.graph_kind,
            "probe_n": self.probe_n,
            "lattice_size": self.lattice_size,
            "entries": [
                {"impl": e.impl, "opts": e.opts_key, "tprime": e.tprime, "ms": round(e.ms, 6)}
                for e in self.entries
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TuningPlan":
        entries = tuple(
            PlanEntry(
                impl=item["impl"],
                opts_key=item["opts"],
                tprime=int(item["tprime"]),
                ms=float(item["ms"]),
            )
            for item in payload["entries"]
        )
        workload = Workload(
            kind=payload["kind"],
            n=int(payload["n"]),
            m=int(payload["m"]),
            graph_kind=payload["graph_kind"],
        )
        return cls(
            machine_key=payload["machine_key"],
            workload=workload,
            probe_n=int(payload["probe_n"]),
            entries=entries,
            lattice_size=int(payload.get("lattice_size", 0)),
        )

    def summary_lines(self) -> List[str]:
        sel = self.selected
        solves = len({e.impl for e in self.entries})
        lines = [
            f"workload           : {self.workload.key()}",
            f"searched lattice   : {self.lattice_size} configurations"
            f" (measured by {solves} probe solve(s) at n={self.probe_n})",
            f"selected           : {sel.config_label()}"
            f" ({sel.ms:.3f} ms modeled)",
        ]
        return lines


# -- probe solves -------------------------------------------------------------

def _probe_graph(workload: Workload, probe_n: int) -> EdgeList:
    """Small same-family replica: same m/n density, fixed seed (the
    weights too: an MST probe is weighted at ``PROBE_SEED``)."""
    density = workload.m / max(workload.n, 1)
    probe_m = max(probe_n, int(round(density * probe_n)))
    kind = workload.graph_kind if workload.graph_kind in FAMILIES else "random"
    g = generate(kind, probe_n, probe_m, PROBE_SEED)
    if workload.kind == "mst":
        g = with_random_weights(g, seed=PROBE_SEED)
    return g


def _probe_machine(machine: MachineConfig, f: float) -> MachineConfig:
    """Scale a machine for a probe input shrunk by factor ``f``.

    Scales cache AND multiplies the existing ``per_call_scale`` —
    ``machine`` may itself already be calibrated for the full input
    (``machine_for_input`` *replaces* per_call_scale, which would undo
    that calibration here).
    """
    if f >= 1.0:
        return machine
    return scaled_cache(machine, f).with_(per_call_scale=machine.per_call_scale * f)


def _probe_sim_times(
    workload: Workload,
    graph: EdgeList,
    machine: MachineConfig,
    impl: str,
    opts: OptimizationFlags,
    tprimes: tuple,
):
    """One taped solve of the probe replica; its modeled seconds on the
    probe machine at every ``t'`` of ``tprimes``."""
    # Imported here: pipeline imports the tuning package for auto mode.
    from ..core.pipeline import connected_components, minimum_spanning_forest

    solve = connected_components if workload.kind == "cc" else minimum_spanning_forest
    with recording() as tape:
        solve(graph, machine, impl=impl, opts=opts, tprime=tprimes[0])
    return tape.replay(tprimes)


def _impl_candidates(kind: str) -> tuple:
    # The registry is the source of truth: registering a new variant
    # with ``searched=True`` makes the planner measure it.
    return tuple(name for (k, name), spec in REGISTRY.items() if k == kind and spec.searched)


def taped_impls(kind: str) -> tuple:
    """Every impl of ``kind`` a probe can measure, searched or not: MST's
    ``collective``; CC's ``collective`` and each Liu–Tarjan variant but
    ``lt-rf`` (the same solve as ``collective``).  The checks that the
    searched subset loses nothing solve all of them."""
    if kind == "mst":
        return ("collective",)
    return ("collective",) + tuple(n for n in lt_variant_names() if n != "lt-rf")


def best_times(workload: Workload, graph: EdgeList, machine: MachineConfig, impls) -> dict:
    """``{impl: its least modeled seconds over the t' grid}`` for ``graph``
    on ``machine`` at the optimized flags: one taped solve per impl,
    replayed over :func:`tprime_candidates`."""
    tprimes = tprime_candidates(max(1, workload.n // machine.total_threads), CostModel(machine))
    opts = optimized_flags(workload.kind)
    return {
        impl: float(min(_probe_sim_times(workload, graph, machine, impl, opts, tprimes)))
        for impl in impls
    }


def optimized_flags(kind: str) -> OptimizationFlags:
    """The paper's "Optimized" flags, the only ones the planner searches.

    Figs. 5-6 add the Section V optimizations one at a time and every
    bar is lower than the last, so the flags are fixed and only the
    solver and ``t'`` are searched.  MST leaves ``offload`` off: the
    ``D[0]`` invariant it relies on fails for Borůvka, and the solver
    refuses it.
    """
    flags = OptimizationFlags.all()
    return flags.with_(offload=False) if kind == "mst" else flags


def build_plan(workload: Workload, machine: MachineConfig) -> TuningPlan:
    """Measure every searched impl × ``t'`` for ``workload`` on ``machine``:
    one taped probe solve per impl, replayed over the ``t'`` grid."""
    tprimes = tprime_candidates(
        max(1, workload.n // machine.total_threads), CostModel(machine)
    )
    opts = optimized_flags(workload.kind)
    probe_n = min(workload.n, PROBE_N_CAP)
    f = probe_n / workload.n
    graph = _probe_graph(workload, probe_n)
    pmachine = _probe_machine(machine, f)
    entries: List[PlanEntry] = []
    for impl in _impl_candidates(workload.kind):
        sim_times = _probe_sim_times(workload, graph, pmachine, impl, opts, tprimes)
        entries.extend(
            PlanEntry(impl=impl, opts_key=opts.key(), tprime=tp, ms=float(t) * 1e3 / f)
            for tp, t in zip(tprimes, sim_times)
        )
    entries.sort(key=lambda e: (e.ms, e.impl, e.tprime))

    from .cache import machine_fingerprint  # here: the cache module imports this one

    return TuningPlan(
        machine_key=machine_fingerprint(machine),
        workload=workload,
        probe_n=probe_n,
        entries=tuple(entries),
        lattice_size=len(entries),
    )


# Exported under a stable name for the tests that need to scale machines
# exactly the way the planner does.
probe_machine_for = _probe_machine
