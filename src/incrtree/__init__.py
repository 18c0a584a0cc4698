"""Increasing spanning-tree skeletons of connected graphs.

Every connected graph on an ordered vertex set collapses to a canonical
increasing tree, and the preimage of each tree is a product of nonempty
edge-subset choices.  This package implements the collapse, its fiber
structure, the graph invariants that structure makes cheap to organize
(connected-subgraph counts, chromatic polynomial coefficients, power-sum
coefficients of chromatic symmetric functions), and the bijection with
broken-circuit-free subtrees, together with brute-force oracles that
cross-check all of it on small graphs.
"""

from .graphs import (BoundExceededError, EXHAUSTIVE_LIMIT, Graph,
                     GraphFormatError, NotConnectedError, SetPartition,
                     all_graphs, connected_graphs, edge, format_graph, link,
                     parse_graph, random_connected_graph, set_partitions_of)
from .trees import (RootedForest, RootedTree, count_supported_trees,
                    increasing_trees, supported_increasing_forests)
from .skeleton import (attachments_cover, enumerate_fiber, fiber_edge_sets,
                       fiber_members, fiber_size, skeleton, skeleton_forest,
                       splits_match)
from .invariants import (IntPoly, chromatic_poly_by_independent_sets,
                         chromatic_poly_by_subsets, chromatic_poly_from_forests,
                         collapse_by_shape, connected_subgraph_poly,
                         connected_subgraph_poly_from_trees, csf_x_by_subsets,
                         csf_x_from_forests, csf_y_by_subsets,
                         csf_y_from_forests, supported_forest_counts)
from .brokencircuits import (bcf_subforests, breaks_by_circuits,
                             breaks_by_skeleton, is_broken_circuit_free,
                             min_attachment_tree, spanning_subtrees)

__version__ = "0.1.0"

__all__ = [
    "BoundExceededError", "EXHAUSTIVE_LIMIT", "Graph", "GraphFormatError",
    "NotConnectedError", "SetPartition", "all_graphs", "connected_graphs",
    "edge", "format_graph", "link", "parse_graph", "random_connected_graph",
    "set_partitions_of",
    "RootedForest", "RootedTree", "count_supported_trees", "increasing_trees",
    "supported_increasing_forests",
    "attachments_cover", "enumerate_fiber", "fiber_edge_sets",
    "fiber_members", "fiber_size", "skeleton", "skeleton_forest",
    "splits_match",
    "IntPoly", "chromatic_poly_by_independent_sets",
    "chromatic_poly_by_subsets", "chromatic_poly_from_forests",
    "collapse_by_shape", "connected_subgraph_poly",
    "connected_subgraph_poly_from_trees", "csf_x_by_subsets",
    "csf_x_from_forests", "csf_y_by_subsets", "csf_y_from_forests",
    "supported_forest_counts",
    "bcf_subforests", "breaks_by_circuits", "breaks_by_skeleton",
    "is_broken_circuit_free", "min_attachment_tree", "spanning_subtrees",
]
