"""Sequential MST baselines: Kruskal, Prim, Borůvka.

The paper measures its parallel MST against "the best sequential
algorithm (in this case Kruskal's algorithm beats both the Prim's and
Borůvka's algorithms) ... We use the cache-friendly merge sort in
implementing Kruskal's algorithm."  All three cost models are provided
so the benchmarks can reproduce that ranking; :func:`solve_mst_sequential`
defaults to Kruskal.

Execution engine: :func:`repro.mst.verify.msf_edge_ids`, the NumPy
Borůvka the certificates use, over edges ranked by ``(weight, edge id)``
— the library's tie-break, so the forest is the one Kruskal with that
order picks.  The labels are :func:`~repro.graph.validation.forest_roots`
over the forest's edges.

Cost models (single thread, cache-modeled memory):

* Kruskal — merge sort: ``ceil(log2 m)`` streamed passes over ``m``
  records (the "cache-friendly merge sort"), then ``m`` union-find
  operations (irregular, working set ``n``);
* Prim — ``m`` binary-heap updates of ``log2 n`` irregular accesses each
  plus adjacency streaming;
* Borůvka — ``ceil(log2 n)`` passes, each streaming ``m`` edges with two
  irregular label reads per edge plus per-vertex bookkeeping.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.results import MSTResult, SolveInfo
from ..errors import ConfigError, GraphError
from ..graph.edgelist import EdgeList
from ..graph.validation import forest_roots
from ..runtime.machine import MachineConfig, sequential_machine
from ..runtime.runtime import PGASRuntime
from .sequential_costs import charge_boruvka, charge_kruskal, charge_prim
from .verify import msf_edge_ids

__all__ = ["solve_mst_sequential", "SEQUENTIAL_ALGORITHMS"]

SEQUENTIAL_ALGORITHMS = ("kruskal", "prim", "boruvka")


def solve_mst_sequential(
    graph: EdgeList,
    machine: MachineConfig | None = None,
    algorithm: str = "kruskal",
) -> MSTResult:
    """Sequential minimum spanning forest with modeled cost."""
    if algorithm not in SEQUENTIAL_ALGORITHMS:
        raise ConfigError(
            f"algorithm must be one of {SEQUENTIAL_ALGORITHMS}, got {algorithm!r}"
        )
    if graph.w is None:
        raise GraphError("MST needs a weighted graph; use with_random_weights()")
    machine = machine if machine is not None else sequential_machine()
    wall_start = time.perf_counter()
    rt = PGASRuntime(machine)

    n, m = graph.n, graph.m
    if algorithm == "kruskal":
        charge_kruskal(rt, n, m)
    elif algorithm == "prim":
        charge_prim(rt, n, m)
    else:
        charge_boruvka(rt, n, m)
    rt.counters.add(iterations=1)

    edge_ids = msf_edge_ids(graph)
    total = int(graph.w[edge_ids].sum())
    labels = forest_roots(n, graph.u[edge_ids], graph.v[edge_ids]).astype(np.int64, copy=False)
    info = SolveInfo(
        machine, f"mst-seq-{algorithm}", rt.elapsed, time.perf_counter() - wall_start, 1, rt.trace
    )
    return MSTResult(edge_ids, total, labels, info)

