"""Level-synchronous breadth-first search.

The paper's Section I cites Yoo et al.'s BlueGene/L BFS as the only
prior high-performance distributed graph result — and points out its
limitation: "the parallel BFS implementation has a lower bound of O(d)
(d is the diameter of the input graph) for the running time regardless
of the number of processors.  Many poly-log time graph algorithms ...
exhibit different algorithmic behavior."

This package implements BFS in the library's three styles so the
contrast is measurable: the collective version needs one communication
round per *level* (diameter-bound), while the collective CC needs
O(log n) grafting iterations however long the paths are —
``benchmarks/bench_related_bfs.py`` regenerates the comparison.
"""

from .solvers import (
    BFS_IMPLS, solve_bfs, solve_bfs_collective, solve_bfs_naive_upc, solve_bfs_sequential,
)

__all__ = [
    "BFS_IMPLS", "solve_bfs", "solve_bfs_collective", "solve_bfs_naive_upc", "solve_bfs_sequential",
]
