"""Graph substrate: edge lists, generators, distribution, persistence.

The paper's inputs are large sparse edge lists — random graphs and hybrid
(random + R-MAT scale-free core) graphs, optionally with random integer
weights for MST.  Everything here is deterministic for a fixed seed and
independent of the simulated thread count, matching the paper's
methodology requirement.
"""

from .distribute import EdgePartition, distribute_edges
from .edgelist import EdgeList
from .generators import (
    FAMILIES,
    MAX_WEIGHT,
    complete_graph,
    cycle_graph,
    disjoint_components_graph,
    empty_graph,
    generate,
    grid_graph,
    hybrid_graph,
    path_graph,
    powerlaw_graph,
    random_graph,
    star_graph,
    with_random_weights,
)
from .io import load_edgelist, save_edgelist
from .permutation import (
    block_cyclic_permutation,
    identity_permutation,
    invert_permutation,
    random_permutation,
    reversal_permutation,
)
from .rmat import DEFAULT_RMAT_PROBS, rmat_edges
from .validation import (
    check_bfs_levels,
    check_connected_counts,
    check_simple,
    component_sizes,
    count_components_reference,
    has_self_loops,
    is_simple,
)

__all__ = [
    "DEFAULT_RMAT_PROBS",
    "EdgeList",
    "EdgePartition",
    "FAMILIES",
    "MAX_WEIGHT",
    "block_cyclic_permutation",
    "check_bfs_levels",
    "check_connected_counts",
    "check_simple",
    "complete_graph",
    "component_sizes",
    "count_components_reference",
    "cycle_graph",
    "disjoint_components_graph",
    "distribute_edges",
    "empty_graph",
    "generate",
    "grid_graph",
    "has_self_loops",
    "hybrid_graph",
    "identity_permutation",
    "invert_permutation",
    "is_simple",
    "load_edgelist",
    "path_graph",
    "powerlaw_graph",
    "random_graph",
    "random_permutation",
    "reversal_permutation",
    "rmat_edges",
    "save_edgelist",
    "star_graph",
    "with_random_weights",
]
