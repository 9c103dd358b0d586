"""Connected components: every implementation the paper evaluates.

* :func:`solve_cc_naive_upc` — literal PGAS translation (Fig. 2's CC-UPC);
* :func:`solve_cc_smp` — single-node SMP baseline (CC-SMP);
* :func:`solve_cc_collective` — the GetD/SetD rewrite with all Section V
  optimizations (the paper's "Optimized");
* :func:`solve_cc_sv` — Shiloach-Vishkin rewritten with collectives, a
  round step on the Liu–Tarjan solve shell;
* :func:`solve_cc_sequential` — best sequential baseline (union-find);
* :func:`solve_cc_cgm` — the round-minimizing CGM comparison point the
  paper's thesis argues against.

All produce identical component partitions (deterministic min
adjudication); they differ in the machine they target and what their
accesses cost.
"""

from .cgm import solve_cc_cgm
from .collective import pointer_jump_to_stars, solve_cc_collective
from .common import graft_proposals, is_all_stars, iteration_bound
from .fine_grained import solve_cc_fine_grained
from .naive_upc import solve_cc_naive_upc
from .sequential import solve_cc_sequential
from .smp import solve_cc_smp
from .sv import solve_cc_sv

__all__ = [
    "graft_proposals",
    "solve_cc_cgm",
    "is_all_stars",
    "iteration_bound",
    "pointer_jump_to_stars",
    "solve_cc_collective",
    "solve_cc_fine_grained",
    "solve_cc_naive_upc",
    "solve_cc_sequential",
    "solve_cc_smp",
    "solve_cc_sv",
]
