"""High-level solver entry points.

The public API a downstream user calls:

>>> from repro import connected_components, random_graph, hps_cluster
>>> g = random_graph(100_000, 400_000, seed=0)
>>> result = connected_components(g, machine=hps_cluster(16, 8))
>>> result.num_components, result.info.sim_time_ms

``impl`` selects the implementation (the paper's configurations);
``validate=True`` self-checks the answer by certificate
(:mod:`repro.graph.validation`, :mod:`repro.mst.verify`) before
returning.
"""

from __future__ import annotations

from ..algorithms import get_algorithm, implementations
from ..errors import ConfigError
from ..graph.edgelist import EdgeList
from ..graph.validation import check_connected_counts
from ..mst.verify import check_spanning_forest
from ..runtime.machine import MachineConfig
from .optimizations import OptimizationFlags
from .results import CCResult, MSTResult


def resolve_tprime(tprime, machine: MachineConfig | None, n: int) -> int:
    """Resolve a ``tprime`` argument: an int passes through; ``"auto"``
    picks the smallest t' whose per-thread sub-block fits the modeled
    cache (the paper: "the size of t' is chosen such that the block fits
    into a certain level cache hierarchy, e.g. L2")."""
    if tprime == "auto":
        from ..runtime.machine import hps_cluster
        from ..runtime.cost import CostModel
        from ..scheduling.cache_model import best_tprime

        m = machine if machine is not None else hps_cluster()
        block_elems = max(1, n // m.total_threads)
        return best_tprime(block_elems, CostModel(m))
    if not isinstance(tprime, int) or tprime < 1:
        raise ConfigError(f"tprime must be a positive int or 'auto', got {tprime!r}")
    return tprime


def _resolve_auto(kind, graph, machine, impl, opts, tprime, graph_kind, adapt):
    """Resolve ``"auto"`` impl/opts/tprime through the autotuner.

    Returns ``(impl, opts, tprime, adapter)``.  A :class:`~repro.tuning.
    TuningPlan` (cached, or built with probe solves on first use) feeds
    every ``"auto"`` argument from its best entry consistent with the
    explicit ones (:meth:`~repro.tuning.TuningPlan.choose`).  When the
    plan's impl is one of the adaptive collective solvers, an
    :class:`~repro.tuning.OnlineAdapter` rides along (``adapt=False``
    disables it; ``offload`` adaptation is CC-only — the MST solver's
    D[0] invariant forbids it).
    """
    auto_plan = impl == "auto" or opts == "auto"
    adapter = None
    if auto_plan and graph.n == 0:
        # Nothing to tune on an empty input; fall back to the defaults.
        impl = "collective" if impl == "auto" else impl
        opts = OptimizationFlags.all() if opts == "auto" else opts
        tprime = 1 if tprime == "auto" else tprime
        auto_plan = False
    if auto_plan:
        from ..runtime.machine import hps_cluster
        from ..tuning import OnlineAdapter, Workload, autotune

        m = machine if machine is not None else hps_cluster()
        workload = Workload(kind=kind, n=graph.n, m=graph.m, graph_kind=graph_kind)
        entry = autotune(workload, m).choose(impl, tprime)
        impl = entry.impl if impl == "auto" else impl
        opts = entry.opts() if opts == "auto" else opts
        tprime = entry.tprime if tprime == "auto" else tprime
        if adapt and impl == "collective":
            adapter = OnlineAdapter(m, graph.n, allow_offload=kind == "cc")
    tprime = resolve_tprime(tprime, machine, graph.n)
    return impl, opts, tprime, adapter


__all__ = [
    "connected_components",
    "resolve_tprime",
    "minimum_spanning_forest",
    "spanning_forest",
    "CC_IMPLS",
    "MST_IMPLS",
]

#: Public impl names: the registry's entries plus the ``'auto'`` mode
#: (which is pipeline dispatch, not an algorithm — the tuner resolves it
#: to a registered name before the solver runs).
CC_IMPLS = implementations("cc") + ("auto",)
MST_IMPLS = implementations("mst") + ("auto",)


def _dispatch(
    kind, impl, graph, machine, opts, tprime, sort_method, faults, adapter, integrity,
    resilience=None,
):
    """Resolve ``impl`` through :mod:`repro.algorithms` and run it, once
    its spec has agreed to every fault class and protection asked for."""
    spec = get_algorithm(kind, impl)
    spec.require(
        faults=faults, integrity=integrity is not None, resilience=resilience is not None,
    )
    return spec.solve(
        graph, machine, opts, tprime, sort_method,
        faults, adapter, integrity, resilience,
    )


def connected_components(
    graph: EdgeList,
    machine: MachineConfig | None = None,
    impl: str = "collective",
    opts: "OptimizationFlags | str" = OptimizationFlags.all(),
    tprime: "int | str" = 1,
    sort_method: str = "count",
    validate: bool = False,
    faults=None,
    graph_kind: str = "random",
    adapt: bool = True,
    integrity=None,
    resilience=None,
) -> CCResult:
    """Solve connected components on the simulated machine.

    Parameters
    ----------
    impl:
        ``'collective'`` (the paper's optimized CC), ``'sv'``
        (Shiloach-Vishkin with collectives), ``'naive'`` (literal UPC
        translation), ``'smp'`` (single-node baseline), ``'sequential'``,
        ``'cgm'`` (the round-minimizing communication-efficient baseline
        the paper argues against), or ``'auto'`` (let the
        :mod:`repro.tuning` planner choose).
    opts, tprime, sort_method:
        Section V optimization flags, the virtual-thread factor, and the
        grouping sort; only meaningful for the collective/sv impls.
        ``opts='auto'`` and ``tprime='auto'`` defer to the tuning plan
        (plain ``tprime='auto'`` without any other auto argument uses
        the cache-fit prediction directly — no probe solves).
    validate:
        Check the labeling by certificate before returning.
    faults:
        Optional :class:`~repro.faults.FaultPlan` injected into the run.
        :meth:`AlgorithmSpec.supports <repro.algorithms.AlgorithmSpec.supports>`
        says which impls take which event classes; the rest raise
        :class:`~repro.errors.ConfigError` before solving.
    graph_kind, adapt:
        Auto-mode context: the generator family the tuner probes with,
        and whether the online adapter may revise flags/t' mid-solve.
    integrity:
        Optional :class:`~repro.integrity.IntegrityConfig` (or ``True``)
        enabling silent-fault detection and verify-and-repair.
    resilience:
        Optional :class:`~repro.resilience.RedundancyConfig` (or
        ``True``) enabling survival of permanent node losses: the label
        array keeps charged off-node replicas/parity, and a fired
        :class:`~repro.faults.NodeLossEvent` triggers epoch recovery
        instead of :class:`~repro.errors.UnrecoverableLossError`.

    ``integrity`` and ``resilience`` need an impl that solves under the
    round driver; :meth:`AlgorithmSpec.supports
    <repro.algorithms.AlgorithmSpec.supports>` is the one gate.
    """
    impl, opts, tprime, adapter = _resolve_auto(
        "cc", graph, machine, impl, opts, tprime, graph_kind, adapt
    )
    result = _dispatch(
        "cc", impl, graph, machine, opts, tprime, sort_method, faults, adapter, integrity,
        resilience=resilience,
    )
    if validate:
        check_connected_counts(result.labels, graph)
    return result


def minimum_spanning_forest(
    graph: EdgeList,
    machine: MachineConfig | None = None,
    impl: str = "collective",
    opts: "OptimizationFlags | str" = OptimizationFlags.all(),
    tprime: "int | str" = 1,
    sort_method: str = "count",
    validate: bool = False,
    faults=None,
    graph_kind: str = "random",
    adapt: bool = True,
    integrity=None,
    resilience=None,
) -> MSTResult:
    """Solve minimum spanning forest on the simulated machine.

    ``impl`` is ``'collective'`` (lock-free SetDMin Borůvka),
    ``'naive'``, ``'smp'`` (lock-based baselines), a sequential
    algorithm name (``'kruskal'``, ``'prim'``, ``'boruvka'``), or
    ``'auto'`` (the :mod:`repro.tuning` planner chooses; ``opts`` and
    ``tprime`` may also be ``'auto'``).  ``faults`` optionally injects a
    :class:`~repro.faults.FaultPlan`.  ``graph_kind``/``adapt`` are
    the auto-mode context (probe family; allow mid-solve adaptation —
    t' only for MST, offload adaptation is structurally disabled).
    ``integrity`` optionally enables silent-fault detection and
    verify-and-repair.  ``resilience`` optionally enables
    permanent-node-loss survival via charged owner-block redundancy and
    epoch recovery (see :mod:`repro.resilience`).  Which impls take which
    fault classes and protections is :meth:`AlgorithmSpec.supports
    <repro.algorithms.AlgorithmSpec.supports>`'s answer; the rest raise
    :class:`~repro.errors.ConfigError` before solving.
    """
    impl, opts, tprime, adapter = _resolve_auto(
        "mst", graph, machine, impl, opts, tprime, graph_kind, adapt
    )
    result = _dispatch(
        "mst", impl, graph, machine, opts, tprime, sort_method, faults, adapter, integrity,
        resilience=resilience,
    )
    if validate:
        check_spanning_forest(graph, result.edge_ids)
    return result


def spanning_forest(
    graph: EdgeList,
    machine: MachineConfig | None = None,
    opts: OptimizationFlags = OptimizationFlags.all(),
    tprime: "int | str" = 1,
    sort_method: str = "count",
    validate: bool = False,
) -> MSTResult:
    """Unweighted spanning forest (the paper's "closely related spanning
    tree algorithm").

    Runs the collective Borůvka machinery with uniform weights, so the
    deterministic (weight, edge id) tie-break reduces to edge-id order:
    the returned forest is the earliest-id spanning forest, identical
    across machine shapes.  ``total_weight`` equals the edge count.
    """
    import numpy as np

    tprime = resolve_tprime(tprime, machine, graph.n)
    unit = graph.with_weights(np.ones(graph.m, dtype=np.int64))
    result = _dispatch(
        "mst", "collective", unit, machine, opts, tprime, sort_method, None, None, None
    )
    if validate:
        check_spanning_forest(unit, result.edge_ids)
    return result
