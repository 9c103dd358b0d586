"""The solvers' working set, pinned.

A solve holds its input edge list, the partitions over it, the rounds'
request vectors and the pooled kernel scratch.  The partitions are
read-only views of the edge list (``graph.distribute.distribute_edges``)
and the SMatrix row offsets are stored at their width
(``PartitionedArray.requester_base``), so the traced peak of one warm
solve is pinned here: a change that brings back a per-solve copy of the
edges, or widens a per-edge vector, fails with the largest live
allocations at its peak.

Each bound is the peak measured with both savings in place (NumPy 2.4,
CPython 3.11) plus a 5 % margin.  Without them the same CC solve peaks
at 7.71 MB and the MST solve at 9.23 MB.
"""

from __future__ import annotations

import os
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import repro
from repro.graph.distribute import distribute_edges
from repro.perf.arena import global_arena

MACHINE = repro.hps_cluster(8, 4)
MARGIN = 1.05
#: Traced peak (MB) of one warm collective solve on each input below.
MEASURED_MB = {"cc": 6.22, "mst": 7.45}


@pytest.fixture(scope="module")
def inputs():
    return {
        "cc": repro.random_graph(20_000, 80_000, seed=3),
        "mst": repro.with_random_weights(repro.hybrid_graph(5_000, 50_000, seed=4), seed=5),
    }


def _solve(algo, graph):
    solve = repro.connected_components if algo == "cc" else repro.minimum_spanning_forest
    return solve(graph, machine=MACHINE, impl="collective")


def _traced(run) -> int:
    """Bytes allocated above the starting level at the traced peak of
    ``run()``, started with an empty buffer arena."""
    global_arena().clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _live_at_peak(run, limit: int = 12) -> str:
    """The largest live allocations at the highest traced level seen
    between two calls while ``run()`` executes (a temporary inside one
    C call is not seen, the buffers around it are), each charged to the
    innermost line of the package that made it."""
    global_arena().clear()
    high = [0, None]

    def hook(frame, event, arg):
        if event in ("return", "c_return"):
            current = tracemalloc.get_traced_memory()[0]
            if current > high[0] * 1.01:
                high[0] = current
                high[1] = tracemalloc.take_snapshot()

    tracemalloc.start(32)
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    marker = f"{os.sep}repro{os.sep}"
    live: Counter = Counter()
    for trace in high[1].traces:
        frames = [f for f in trace.traceback if marker in f.filename]
        if frames:  # oldest first: the last one is the innermost
            inner = frames[-1]
            where = inner.filename[inner.filename.rindex(marker) + 1 :]
            live[f"{where}:{inner.lineno}"] += trace.size
    lines = [f"live at {high[0] / 1e6:.2f} MB, by allocating line:"]
    lines += [f"  {size / 1e6:8.3f} MB  {where}" for where, size in live.most_common(limit)]
    return "\n".join(lines)


@pytest.mark.parametrize("algo", ["cc", "mst"])
def test_warm_solve_peak(inputs, algo):
    graph = inputs[algo]
    _solve(algo, graph)  # warm: imports, memoized layouts, first-call set-up
    peak = _traced(lambda: _solve(algo, graph))
    bound = MEASURED_MB[algo] * MARGIN * 1e6
    if peak > bound:
        pytest.fail(
            f"{algo} peak {peak / 1e6:.2f} MB > {bound / 1e6:.2f} MB\n"
            + _live_at_peak(lambda: _solve(algo, graph))
        )


def test_partitions_are_read_only_views_of_the_edge_list(inputs):
    graph = inputs["mst"]
    ep = distribute_edges(graph, MACHINE.total_threads)
    for part, array in ((ep.u, graph.u), (ep.v, graph.v), (ep.w, graph.w)):
        assert np.shares_memory(part.data, array)
        with pytest.raises(ValueError, match="read-only"):
            part.segment(1)[0] = 0
    assert graph.u.flags.writeable and graph.v.flags.writeable and graph.w.flags.writeable


@pytest.mark.parametrize("algo", ["cc", "mst"])
def test_a_solve_leaves_its_input_as_it_was(inputs, algo):
    graph = inputs[algo]
    arrays = [graph.u, graph.v] + ([graph.w] if graph.w is not None else [])
    before = [array.tobytes() for array in arrays]
    _solve(algo, graph)
    assert [array.tobytes() for array in arrays] == before
    assert all(array.flags.writeable for array in arrays)
