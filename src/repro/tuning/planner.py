"""Plan search: pick (impl, t') for a machine × input pair.

The flags are not searched.  Figs. 5-6 add the Section V optimizations
one at a time and every bar is lower than the last, so each plan uses
the paper's "Optimized" configuration (:func:`_optimized_flags`: all
flags for CC, all but ``offload`` for MST).  What decides the outcome
is the solver and ``t'``, and the planner searches those in two stages,
the way production autotuners (ATLAS, FFTW, the DASH runtime) prune a
space down to a handful of measurements:

1. **Analytic ranking** — a dry-run predictor prices one solve of every
   candidate impl at every :func:`tprime_candidates` point, using the
   same :class:`~repro.runtime.cost.CostModel` calls the collectives
   charge, with synthetic uniform request counts.  About a hundred
   points for CC, ten for MST, no solves.
2. **Probe refinement** — the top analytic candidates plus ``collective``
   at every t' (which includes the paper's default, t'=2) are
   *actually solved* on a small replica input: same graph family, same
   m/n density, generated from a fixed seed, on a machine whose cache
   and per-call costs are scaled by the same factor as the input (the
   calibrated-scaling invariance of :mod:`repro.core.calibration` —
   modeled time is then ~linear in n, so the small-replica ranking is
   the full-size ranking).

The result is a :class:`TuningPlan`: every candidate with its predicted
and (where probed) measured modeled time, ranked, with ``entries[0]``
the selected configuration.  Plans are value objects — deterministic,
JSON-serializable, cacheable (:mod:`repro.tuning.cache`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..algorithms import REGISTRY, TuningEntry, get_algorithm
from ..core.optimizations import OptimizationFlags
from ..errors import ConfigError
from ..graph.edgelist import EdgeList
from ..graph.generators import FAMILIES, generate, with_random_weights
from ..runtime.cost import ELEM_BYTES, CostModel
from ..runtime.machine import MachineConfig, scaled_cache
from ..scheduling.cache_model import tprime_candidates

__all__ = [
    "Workload",
    "PlanEntry",
    "TuningPlan",
    "build_plan",
    "predict_config_ms",
    "expected_rounds",
    "PROBE_N_CAP",
    "PROBE_SEED",
]

#: Probe replicas never exceed this vertex count — large enough that the
#: per-round volumes dwarf startup noise, small enough that a full probe
#: sweep is ~a second of wall time.
PROBE_N_CAP = 3000
#: Seed for probe replica generation (fixed: plans must be deterministic).
PROBE_SEED = 2010
#: How many of the analytic ranking's best entries the probe stage solves.
_ANALYTIC_TOP_K = 6

#: Fraction of a CC round's label requests that target the hot vertex 0
#: once grafting has concentrated labels (what ``offload`` drops).  Used
#: only for analytic ranking; probes measure the real skew.
_HOT_FRACTION = 0.15
#: Live-edge decay per round under ``compact`` (random/hybrid inputs
#: settle roughly half their live edges per grafting round).
_COMPACT_DECAY = 0.5
#: Shiloach-Vishkin performs more, cheaper rounds than grafting; net
#: modeled cost lands above the grafting solver by about this factor.
_SV_ROUND_FACTOR = 1.35


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
    """One searched configuration with its predicted (and maybe measured) cost.

    ``predicted_ms`` comes from the analytic dry run; ``probed_ms`` from
    an actual solve of the scaled replica, rescaled to the full input
    size (``None`` when the entry was pruned before probing).  Both are
    modeled milliseconds at the *full* workload size.
    """

    impl: str
    opts_key: str
    tprime: int
    predicted_ms: float
    probed_ms: Optional[float] = None

    def opts(self) -> OptimizationFlags:
        return OptimizationFlags.parse(self.opts_key)

    @property
    def best_ms(self) -> float:
        return self.probed_ms if self.probed_ms is not None else self.predicted_ms

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

    def probed(self) -> List[PlanEntry]:
        return [e for e in self.entries if e.probed_ms is not None]

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "machine_key": self.machine_key,
            "kind": self.workload.kind,
            "n": self.workload.n,
            "m": self.workload.m,
            "graph_kind": self.workload.graph_kind,
            "probe_n": self.probe_n,
            "lattice_size": self.lattice_size,
            "entries": [
                {
                    "impl": e.impl,
                    "opts": e.opts_key,
                    "tprime": e.tprime,
                    "predicted_ms": round(e.predicted_ms, 6),
                    "probed_ms": None if e.probed_ms is None else round(e.probed_ms, 6),
                }
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
                predicted_ms=float(item["predicted_ms"]),
                probed_ms=None if item["probed_ms"] is None else float(item["probed_ms"]),
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
        lines = [
            f"workload           : {self.workload.key()}",
            f"searched lattice   : {self.lattice_size} configurations"
            f" ({len(self.probed())} probe-measured at n={self.probe_n})",
            f"selected           : {sel.config_label()}"
            f" ({sel.best_ms:.3f} ms modeled)",
        ]
        return lines


def expected_rounds(n: int) -> int:
    """Round-count estimate for the grafting/Borůvka solvers.

    Both halve the live structure per round in expectation; the constant
    is irrelevant for ranking (it multiplies every configuration alike)
    but keeps predicted times in a sane absolute range for the ``tune``
    report.
    """
    return max(2, int(round(math.log2(max(n, 4)) / 2.0)))


def _getd_round_s(
    cost: CostModel,
    machine: MachineConfig,
    total_requests: float,
    n: int,
    opts: OptimizationFlags,
    tprime: int,
    hot_fraction: float,
    pay_ids: bool,
) -> float:
    """Modeled seconds of one GetD-shaped collective moving
    ``total_requests`` elements, with uniform per-thread traffic plus a
    single hot owner receiving ``hot_fraction`` of everything (the
    label-concentration hotspot ``offload`` defuses).

    Mirrors the charge sequence of :func:`repro.collectives.getd.getd`
    phase by phase, with per-thread counts replaced by their uniform
    expectation — a price list, not a simulation.
    """
    s = machine.total_threads
    t = machine.threads_per_node
    if total_requests <= 0:
        return cost.barrier_time()
    hot = hot_fraction if s > 1 else 0.0
    kept = total_requests * (1.0 - hot) if opts.offload else total_requests
    q = kept / s  # per-thread request count

    # Owner-id computation + the offload compare pass.
    work = float(cost.op_time(q)) if pay_ids and opts.ids else 0.0
    if not opts.ids:
        work = float(cost.intrinsic_id_time(q))
    if opts.offload:
        work += float(cost.op_time(total_requests / s))

    sort = float(cost.count_sort_time(q, s))
    setup = float(cost.alltoall_setup_time(s))

    # Serve phase: the hot owner's received count dominates the phase
    # (clocks advance to the max thread); without offload it serves its
    # uniform share plus the entire hot stream.
    block = max(1.0, n / s)
    recv_hot = q if opts.offload else q + total_requests * hot

    def serve(recv: float) -> float:
        if recv <= 0:
            return 0.0
        total = float(cost.virtual_scan_time(recv, tprime)) if tprime > 1 else 0.0
        distinct = min(recv, block)
        ws = cost.distinct_working_set(distinct, block * ELEM_BYTES, tprime)
        total += float(cost.gather_time(recv, distinct, ws, mlp=cost.GATHER_MLP))
        if not opts.localcpy:
            total += float(cost.op_time(recv * machine.cpu.upc_deref_factor))
        return total

    serve_s = max(serve(q), serve(recv_hot))

    # Bulk transfers: remote share of each owner's payload, one message
    # per off-node peer, node-serialized (t threads share the NIC).
    remote_frac = (s - t) / s if s > 1 else 0.0
    rem_elems = max(recv_hot, q) * remote_frac
    rem_msgs = max(s - t, 0)
    comm = float(
        cost.bulk_transfer_time(
            rem_elems, rem_msgs, rdma=opts.rdma, linear_order=not opts.circular
        )
    )
    comm *= min(t, s)
    # Same-node peer + self copies.
    local_elems = max(recv_hot, q) * (1.0 - remote_frac)
    copy = float(cost.seq_access_time(local_elems))

    permute = float(cost.grouped_permute_time(q))
    return work + sort + setup + serve_s + comm + copy + permute + cost.barrier_time()


def predict_config_ms(
    workload: Workload,
    machine: MachineConfig,
    impl: str,
    opts: OptimizationFlags,
    tprime: int,
) -> float:
    """Analytic modeled milliseconds of one full solve.

    Deliberately coarse — synthetic uniform traffic, an estimated round
    count, a fixed hot fraction — but built from the same cost-model
    price list the collectives charge, so it ranks the candidates well
    enough to choose probe candidates (the probe stage measures the
    survivors exactly).
    """
    cost = CostModel(machine)
    s = machine.total_threads
    n, m = workload.n, workload.m
    rounds = expected_rounds(n)

    if impl == "naive":
        # Fine-grained translation: every edge endpoint is its own
        # blocking remote access, occupancy node-serialized.
        per_round = 2.0 * m / s
        blocking = float(cost.fine_grained_blocking_time(per_round))
        occupancy = float(cost.fine_grained_occupancy_time(per_round))
        occupancy *= min(machine.threads_per_node, s)
        return (rounds * (blocking + occupancy + cost.barrier_time())) * 1e3

    total = 0.0
    live = float(m)
    hot = _HOT_FRACTION if workload.kind == "cc" else 0.0
    # MST hard-disables offload (the D[0] invariant fails for Boruvka).
    eff = opts.with_(offload=False) if workload.kind == "mst" else opts
    # The Liu–Tarjan variants are priced with their registry cost hints
    # (per-round collective counts differ by connect/shortcut/alter
    # axis); the legacy impls keep their original constants bit-for-bit.
    lt_entry = _lt_tuning_entry(impl)
    if lt_entry is not None:
        edge_collectives = lt_entry.edge_collectives
        jump_rounds = lt_entry.jump_rounds
    else:
        # Label fetches on the live edge lists (du/dv + root checks for
        # CC; du/dv + the SetDMin bids for MST).
        edge_collectives = 4 if workload.kind == "cc" else 3
        jump_rounds = 2.0
    for r in range(rounds):
        # With `ids` the owner buffers are cached across rounds unless
        # compact rebuilt the request lists.
        pay_ids = r == 0 or eff.compact
        total += edge_collectives * _getd_round_s(
            cost, machine, live, n, eff, tprime, hot, pay_ids
        )
        if eff.compact:
            total += float(cost.op_time(live / s))  # the keep-mask pass
            live *= _COMPACT_DECAY
        # Pointer jumping: collective rounds over the n labels (jump
        # requests never benefit from offload's hot-drop in MST either).
        jump_opts = eff.with_(offload=False) if workload.kind == "mst" else eff
        total += jump_rounds * _getd_round_s(
            cost, machine, float(n), n, jump_opts, tprime, hot, False
        )
        total += cost.allreduce_time()

    if impl == "sv":
        total *= _SV_ROUND_FACTOR
    elif lt_entry is not None:
        total *= lt_entry.round_factor
    return total * 1e3


# -- probe refinement ---------------------------------------------------------

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


def _probe_solve_ms(
    workload: Workload,
    graph: EdgeList,
    machine: MachineConfig,
    impl: str,
    opts: OptimizationFlags,
    tprime: int,
) -> float:
    """Actually solve the probe replica; modeled ms on the probe machine."""
    # Imported here: pipeline imports the tuning package for auto mode.
    from ..core.pipeline import connected_components, minimum_spanning_forest

    if workload.kind == "cc":
        result = connected_components(graph, machine, impl=impl, opts=opts, tprime=tprime)
    else:
        result = minimum_spanning_forest(graph, machine, impl=impl, opts=opts, tprime=tprime)
    return result.info.sim_time_ms


def _probe_task(task: tuple) -> float:
    """Picklable probe unit for the fan-out layer: one configuration,
    one scaled-replica solve, returns modeled ms."""
    workload, graph, machine, impl, opts_key, tprime = task
    return _probe_solve_ms(
        workload, graph, machine, impl, OptimizationFlags.parse(opts_key), tprime
    )


def _lt_tuning_entry(impl: str) -> "TuningEntry | None":
    """The registry cost hints for a Liu–Tarjan impl, else ``None``."""
    if not impl.startswith("lt-"):
        return None
    return get_algorithm("cc", impl).tuning


def _impl_candidates(kind: str) -> tuple:
    # The registry is the source of truth: every registered algorithm
    # with a tuning entry joins the search (registering a new
    # variant automatically makes the planner consider it).  `naive` has
    # no entry — it is priced for the tune report but never probed, the
    # cost model's coalescing gain already rules it out analytically.
    return tuple(
        name for (k, name), spec in REGISTRY.items() if k == kind and spec.tuning is not None
    )


def _optimized_flags(kind: str) -> OptimizationFlags:
    """The paper's "Optimized" flags, the only ones the planner searches.

    Figs. 5-6 add the Section V optimizations one at a time and every
    bar is lower than the last, so the flags are fixed and only the
    solver and ``t'`` are searched.  MST leaves ``offload`` off: the
    ``D[0]`` invariant it relies on fails for Borůvka, and the solver
    refuses it.
    """
    flags = OptimizationFlags.all()
    return flags.with_(offload=False) if kind == "mst" else flags


def build_plan(
    workload: Workload,
    machine: MachineConfig,
    probe: bool = True,
    workers=None,
) -> TuningPlan:
    """Search impl × ``t'`` for ``workload`` on ``machine``.

    With ``probe=False`` only the analytic stage runs (instant; the
    ranking is approximate).  ``workers`` fans the probe solves (each an
    independent, fully-seeded run) across a process pool.  Deterministic
    either way, for any worker count.
    """
    cost = CostModel(machine)
    block_elems = max(1, workload.n // machine.total_threads)
    tprimes = tprime_candidates(block_elems, cost)
    opts = _optimized_flags(workload.kind)
    opts_key = opts.key()

    entries: List[PlanEntry] = [
        PlanEntry(
            impl=impl,
            opts_key=opts_key,
            tprime=tp,
            predicted_ms=predict_config_ms(workload, machine, impl, opts, tp),
        )
        for impl in _impl_candidates(workload.kind)
        for tp in tprimes
    ]
    # The naive translation, priced for the report (one row per t' would
    # be noise: flags and t' don't apply to it).
    entries.append(
        PlanEntry(
            impl="naive",
            opts_key="base",
            tprime=1,
            predicted_ms=predict_config_ms(
                workload, machine, "naive", OptimizationFlags.none(), 1
            ),
        )
    )
    lattice_size = len(entries)
    entries.sort(key=lambda e: (e.predicted_ms, e.impl, e.opts_key, e.tprime))

    probe_n = min(workload.n, PROBE_N_CAP)
    if probe:
        # Probe set: the analytic top-k plus `collective` at every t'
        # (t' is where the analytic model is least trusted), which
        # includes the paper's default, t'=2.
        chosen: Dict[tuple, PlanEntry] = {}
        for entry in entries[:_ANALYTIC_TOP_K]:
            if entry.impl != "naive":
                chosen.setdefault((entry.impl, entry.tprime), entry)
        for entry in entries:
            if entry.impl == "collective":
                chosen.setdefault((entry.impl, entry.tprime), entry)

        f = probe_n / workload.n
        graph = _probe_graph(workload, probe_n)
        pmachine = _probe_machine(machine, f)
        # Each probe is an independent seeded solve; fan them out (the
        # map preserves task order, so the plan is worker-count
        # independent).
        from ..perf.fanout import fanout_map

        keys = list(chosen.keys())
        tasks = [
            (workload, graph, pmachine, chosen[k].impl, opts_key, chosen[k].tprime)
            for k in keys
        ]
        probed = fanout_map(_probe_task, tasks, workers=workers)
        measured: Dict[tuple, PlanEntry] = {
            k: replace(chosen[k], probed_ms=ms / f) for k, ms in zip(keys, probed)
        }
        entries = [measured.get((e.impl, e.tprime), e) for e in entries]
        entries.sort(
            key=lambda e: (
                e.probed_ms is None,  # probed entries rank first...
                e.best_ms,            # ...by measurement; rest by prediction
                e.impl,
                e.opts_key,
                e.tprime,
            )
        )

    from .cache import machine_fingerprint  # here: the cache module imports this one

    return TuningPlan(
        machine_key=machine_fingerprint(machine),
        workload=workload,
        probe_n=probe_n,
        entries=tuple(entries),
        lattice_size=lattice_size,
    )


# Exported under a stable name for the tests that need to scale machines
# exactly the way the planner does.
probe_machine_for = _probe_machine
