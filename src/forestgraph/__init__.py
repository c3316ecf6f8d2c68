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
                       verify_clique_growth)
from .forest_graph import (ConnectivityReport, ForestGraph, build_forest_graph,
                           exchange_path, finite_connectivity_check,
                           forest_distance)
from .forests import (ForestFamily, MaximalForest, brute_force_maximal_forests,
                      count_maximal_forests, extend_to_maximal, maximal_forests)
from .graphs import (BudgetError, Cycle, EdgeSubset, Graph, GraphInputError,
                     blocks, bridges, canonical_form, cartesian_product,
                     complete_graph, components, cycle_graph, cyclomatic_number,
                     find_isomorphism, hamiltonian_cycle, is_bipartite,
                     is_isomorphic, max_clique, path_graph, unique_cycle)
from .io import (ParseError, format_dot, format_edge_list, parse_dot,
                 parse_edge_list, parse_graph)
from .roots import (DepthReport, NoRootCertificate, RootChainCertificate,
                    RootSearchResult, WhitneyResult, depth_lower_bound,
                    enumerate_graphs, find_roots, no_root_prune,
                    whitney_identify, whitney_split, whitney_twist)

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "CliqueWitness", "ConnectivityReport", "Cycle",
    "DepthReport", "EdgeSubset", "ForestFamily", "ForestGraph", "Graph",
    "GraphInputError", "GrowthReport", "GrowthStep", "MaximalForest",
    "NoRootCertificate", "ParseError", "RootChainCertificate",
    "RootSearchResult", "Verdict", "WhitneyResult", "blocks", "bridges",
    "brute_force_maximal_forests", "build_forest_graph", "canonical_form",
    "cartesian_product", "classify",
    "clique_witness_from_complete", "clique_witness_from_cycle",
    "clique_witness_from_two_triangles", "complete_graph", "components",
    "count_maximal_forests", "cycle_graph", "cyclomatic_number",
    "depth_lower_bound", "enumerate_graphs",
    "exchange_path", "extend_to_maximal", "find_isomorphism", "find_roots",
    "finite_connectivity_check", "forest_distance", "format_dot",
    "format_edge_list", "hamiltonian_cycle", "is_bipartite", "is_isomorphic",
    "is_stable", "iterate_F", "max_clique", "maximal_forests", "no_root_prune",
    "parse_dot", "parse_edge_list", "parse_graph", "path_graph",
    "unique_cycle", "verify_clique_growth", "whitney_identify",
    "whitney_split", "whitney_twist",
]
