"""Maximal forests, the forest-graph operator F, and its iterated dynamics.

The forest graph F(G) has one vertex per maximal forest of G (a spanning tree
in each component) and an edge between forests differing by a single exchange.
This package builds F(G) exactly for finite graphs, measures the exchange
metric, classifies convergence of the iteration G, F(G), F(F(G)), ..., finds
preimages under F, and applies the rewrites that preserve forest families.
"""

from .dynamics import (CliqueWitness, GrowthReport, GrowthStep, Verdict,
                       classify, clique_witness_from_complete,
                       clique_witness_from_cycle,
                       clique_witness_from_two_triangles, is_stable, iterate_F,
                       ring_witness_from_clique, verify_clique_growth)
from .forest_graph import (ForestGraph, build_forest_graph, exchange_path,
                           forest_distance)
from .forests import (MaximalForest, brute_force_maximal_forests, count_maximal_forests,
                      extend_to_maximal, maximal_forests)
from .graphs import (BudgetError, Cycle, Graph, GraphInputError,
                     blocks, bridges, cartesian_product,
                     complete_graph, components, cycle_graph,
                     find_isomorphism, is_bipartite,
                     is_isomorphic, path_graph)
from .io import (ParseError, format_dot, format_edge_list, parse_dot,
                 parse_edge_list, parse_graph)
from .roots import (DepthReport, NoRootCertificate, RootChainCertificate,
                    RootSearchResult, WhitneyResult, depth_lower_bound,
                    enumerate_graphs, find_roots, no_root_prune,
                    whitney_identify, whitney_split, whitney_twist)

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "CliqueWitness", "Cycle",
    "DepthReport", "ForestGraph", "Graph",
    "GraphInputError", "GrowthReport", "GrowthStep", "MaximalForest",
    "NoRootCertificate", "ParseError", "RootChainCertificate",
    "RootSearchResult", "Verdict", "WhitneyResult", "blocks", "bridges",
    "brute_force_maximal_forests", "build_forest_graph", "cartesian_product",
    "classify", "clique_witness_from_complete", "clique_witness_from_cycle",
    "clique_witness_from_two_triangles", "complete_graph", "components",
    "count_maximal_forests", "cycle_graph",
    "depth_lower_bound", "enumerate_graphs",
    "exchange_path", "extend_to_maximal", "find_isomorphism", "find_roots",
    "forest_distance", "format_dot",
    "format_edge_list", "is_bipartite", "is_isomorphic",
    "is_stable", "iterate_F", "maximal_forests", "no_root_prune",
    "parse_dot", "parse_edge_list", "parse_graph", "path_graph",
    "ring_witness_from_clique", "verify_clique_growth", "whitney_identify",
    "whitney_split", "whitney_twist",
]
