"""repro — simulated-PGAS reproduction of
"Fast PGAS Implementation of Distributed Graph Algorithms" (Cong,
Almasi, Saraswat; SC 2010).

The library implements the paper's connected-components and
minimum-spanning-tree algorithms — naive UPC translation, SMP baselines,
sequential baselines, and the optimized collective rewrites — on a
simulated cluster of SMPs: the algorithms run for real on NumPy data
while a calibrated cost model charges per-thread virtual clocks, so the
paper's performance shapes (Figs. 2-10) are reproducible on one laptop.

Quickstart::

    import repro

    g = repro.random_graph(100_000, 400_000, seed=0)
    cc = repro.connected_components(g, machine=repro.hps_cluster(16, 8))
    print(cc.num_components, cc.info.sim_time_ms, "ms simulated")

    gw = repro.with_random_weights(g, seed=1)
    mst = repro.minimum_spanning_forest(gw, machine=repro.hps_cluster(16, 8))
    print(mst.total_weight, mst.num_edges)

Packages
--------
``repro.runtime``      simulated PGAS substrate (machines, clocks, costs)
``repro.collectives``  GetD / SetD / SetDMin (paper Algorithm 2)
``repro.scheduling``   access scheduling (paper Algorithm 1), cache models
``repro.graph``        generators, edge lists, distribution
``repro.cc``           connected-components implementations
``repro.mst``          minimum-spanning-forest implementations
``repro.core``         high-level API, optimization flags, analysis
``repro.analysis``     sanitizer suite: epoch race detector + static verifier
``repro.faults``       fault plans/injection: loss, stragglers, crashes, flips
``repro.integrity``    silent-fault detection and verify-and-repair
``repro.resilience``   permanent-loss survival: redundancy, epochs, recovery
``repro.tuning``       autotuner: plan (impl × t') → adapt
``repro.service``      HTTP graph service, its loadtest and its chaos soak
``repro.bench``        experiment harness used by ``benchmarks/``
"""

from .analysis import analyzed, run_verify
from .core import (
    CC_IMPLS,
    DEFAULT_BENCH_N,
    MST_IMPLS,
    CCResult,
    MSTResult,
    OptimizationFlags,
    SolveInfo,
    canonical_labels,
    cluster_for_input,
    connected_components,
    machine_for_input,
    minimum_spanning_forest,
    sequential_for_input,
    smp_for_input,
    spanning_forest,
)
from .errors import (
    CollectiveError,
    ConfigError,
    ConvergenceError,
    DistributionError,
    FaultError,
    GraphError,
    IntegrityError,
    NodeLoss,
    ReproError,
    ThreadCrash,
    UnrecoverableLossError,
    VerificationError,
)
from .faults import (
    CrashEvent,
    FaultInjector,
    FaultPlan,
    NicDegradation,
    NodeLossEvent,
    RetryPolicy,
)
from .integrity import IntegrityConfig
from .resilience import RedundancyConfig, ResilientSession
from .graph import (
    EdgeList,
    hybrid_graph,
    load_edgelist,
    powerlaw_graph,
    random_graph,
    save_edgelist,
    with_random_weights,
)
from .tuning import (
    OnlineAdapter,
    PlanCache,
    TuningPlan,
    Workload,
    autotune,
)
from .runtime import (
    MachineConfig,
    PGASRuntime,
    PartitionedArray,
    SharedArray,
    profiled,
    render_phases,
    hps_cluster,
    infiniband_cluster,
    sequential_machine,
    smp_node,
)

__version__ = "1.0.0"

__all__ = [
    "CCResult",
    "CC_IMPLS",
    "CollectiveError",
    "ConfigError",
    "ConvergenceError",
    "CrashEvent",
    "DEFAULT_BENCH_N",
    "DistributionError",
    "EdgeList",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "GraphError",
    "IntegrityConfig",
    "IntegrityError",
    "MSTResult",
    "MST_IMPLS",
    "MachineConfig",
    "NicDegradation",
    "NodeLoss",
    "NodeLossEvent",
    "OnlineAdapter",
    "OptimizationFlags",
    "PGASRuntime",
    "PartitionedArray",
    "PlanCache",
    "RedundancyConfig",
    "ReproError",
    "ResilientSession",
    "RetryPolicy",
    "SharedArray",
    "SolveInfo",
    "ThreadCrash",
    "TuningPlan",
    "UnrecoverableLossError",
    "VerificationError",
    "Workload",
    "__version__",
    "analyzed",
    "autotune",
    "canonical_labels",
    "cluster_for_input",
    "connected_components",
    "hps_cluster",
    "hybrid_graph",
    "infiniband_cluster",
    "load_edgelist",
    "machine_for_input",
    "minimum_spanning_forest",
    "powerlaw_graph",
    "profiled",
    "random_graph",
    "render_phases",
    "run_verify",
    "save_edgelist",
    "sequential_for_input",
    "sequential_machine",
    "smp_for_input",
    "smp_node",
    "spanning_forest",
    "with_random_weights",
]
