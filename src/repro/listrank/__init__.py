"""List ranking: the paper's motivating contrast (Section I/II).

Three implementations of distance-to-tail ranking:

* :func:`solve_ranks_sequential` — one dependent pointer chase;
* :func:`solve_ranks_wyllie` — PRAM pointer jumping with coalescing
  collectives, every thread busy (the paper's approach);
* :func:`solve_ranks_cgm` — Dehne et al.'s contract/sequential/broadcast
  scheme with O(log p)-ish communication rounds but one busy node (the
  communication-efficient school the paper argues against).

The model does not bear out the paper's Section I argument for list
ranking: on ``cluster_for_input(n, 16, 8)`` at t' = 2, CGM finishes in
about a third of Wyllie's modeled time (1.48 / 2.45 / 4.03 ms against
3.97 / 6.79 / 12.38 ms at n = 50k / 100k / 200k).  CGM's contraction is
not Theta(n) serial work per round, as its CC merge is.
``benchmarks/bench_thesis_cgm_vs_pgas.py`` asserts only that Wyllie
beats the sequential walk; its CC half is where CGM loses.
"""

from .cgm import solve_ranks_cgm
from .generator import LinkedList, random_list, sequential_list
from .sequential import charge_pointer_chase, ranks_by_walk, solve_ranks_sequential
from .wyllie import solve_ranks_wyllie

__all__ = [
    "LinkedList",
    "charge_pointer_chase",
    "random_list",
    "ranks_by_walk",
    "sequential_list",
    "solve_ranks_cgm",
    "solve_ranks_sequential",
    "solve_ranks_wyllie",
]
