"""Minimum spanning tree/forest: every implementation the paper evaluates.

* :func:`solve_mst_collective` — lock-free Borůvka via GetD/SetDMin (the
  paper's optimized MST, Figs. 9-10);
* :func:`solve_mst_smp` — lock-based SMP baseline (MST-SMP);
* :func:`solve_mst_naive_upc` — the literal cluster port (aborted in the
  paper; finite modeled time here);
* :func:`solve_mst_sequential` — Kruskal (default) / Prim / Borůvka cost
  models over the NumPy Borůvka of :mod:`repro.mst.verify`.

All parallel implementations use the same packed (weight, edge-id)
tie-break, so the chosen forest is identical across machines and thread
counts and — on tie-free inputs — equals the sequential baselines' forest.
"""

from .collective import partition_by_owner, solve_mst_collective
from .common import (
    NO_EDGE,
    break_hook_cycles,
    extract_winners,
    pack_candidates,
    unpack_positions,
    unpack_weights,
)
from .fine_grained import solve_mst_fine_grained
from .naive_upc import solve_mst_naive_upc
from .sequential import SEQUENTIAL_ALGORITHMS, solve_mst_sequential
from .smp import solve_mst_smp
from .verify import check_spanning_forest, msf_reference

__all__ = [
    "NO_EDGE",
    "SEQUENTIAL_ALGORITHMS",
    "break_hook_cycles",
    "check_spanning_forest",
    "extract_winners",
    "msf_reference",
    "pack_candidates",
    "partition_by_owner",
    "solve_mst_collective",
    "solve_mst_fine_grained",
    "solve_mst_naive_upc",
    "solve_mst_sequential",
    "solve_mst_smp",
    "unpack_positions",
    "unpack_weights",
]
