"""Best sequential connected components.

The paper's sequential CC baseline is a single-thread union-find /
traversal implementation; speedups "up to 10.1 ... compared with the
best sequential implementation" are measured against it.

Execution engine: :func:`~repro.graph.validation.forest_roots` (min-label
hooking plus pointer jumping in NumPy, the certificates' reference)
computes the labels, each vertex's smallest component member; the
benchmarks call this baseline on million-edge inputs, so it must run at
array speed, not per edge in Python.

Cost accounting: the modeled time charges the union-find access pattern
— for every edge, two finds whose path-halving steps are irregular reads
into the parent array (working set ``n``), plus the constant-time union
— with the same cache-modeled memory costs every other implementation
uses.  The average find path length is charged as
:data:`FIND_PATH_ACCESSES` (path halving keeps amortized path length
O(alpha); 2.5 reflects the near-flat trees seen on random graphs).
"""

from __future__ import annotations

import time

import numpy as np

from ..core.results import CCResult, SolveInfo
from ..graph.edgelist import EdgeList
from ..graph.validation import forest_roots
from ..runtime.machine import MachineConfig, sequential_machine
from ..runtime.runtime import PGASRuntime
from ..runtime.trace import Category

__all__ = ["solve_cc_sequential", "FIND_PATH_ACCESSES"]

#: Modeled irregular parent-array reads per find (path halving).
FIND_PATH_ACCESSES = 2.5


def solve_cc_sequential(graph: EdgeList, machine: MachineConfig | None = None) -> CCResult:
    """Sequential union-find CC with modeled cost; NumPy computes the labels."""
    machine = machine if machine is not None else sequential_machine()
    wall_start = time.perf_counter()
    rt = PGASRuntime(machine)
    n, m = graph.n, graph.m

    if n == 0:
        info = SolveInfo(machine, "cc-seq", 0.0, time.perf_counter() - wall_start, 0, rt.trace)
        return CCResult(np.empty(0, dtype=np.int64), info)

    # --- modeled cost: init + per-edge finds/union ---
    ws_bytes = n * 8
    rt.local_stream(float(n), Category.WORK)  # parent array init
    rt.local_stream(float(2 * m), Category.WORK)  # stream the edge list
    # Two finds per edge, FIND_PATH_ACCESSES irregular reads each (plus
    # the same number of halving writes folded into the constant).
    rt.local_random_access(2.0 * m * FIND_PATH_ACCESSES, ws_bytes, Category.IRREGULAR)
    rt.local_ops(4.0 * m)
    rt.counters.add(iterations=1)

    labels = forest_roots(n, graph.u, graph.v).astype(np.int64, copy=False)
    info = SolveInfo(
        machine, "cc-seq", rt.elapsed, time.perf_counter() - wall_start, 1, rt.trace
    )
    return CCResult(labels, info)
