"""The public surface: every exported name exists, and is exported once."""

import forestgraph

# Adding or dropping a public name means editing this list.
PUBLIC_NAMES = [
    "BudgetError", "CliqueWitness", "Cycle", "DepthReport", "ForestGraph", "Graph",
    "GraphInputError", "GrowthReport", "GrowthStep", "MaximalForest",
    "NoRootCertificate", "ParseError", "RootChainCertificate", "RootSearchResult",
    "Verdict", "WhitneyResult", "blocks", "bridges", "brute_force_maximal_forests",
    "build_forest_graph", "cartesian_product", "classify",
    "clique_witness_from_complete", "clique_witness_from_cycle",
    "clique_witness_from_two_triangles", "complete_graph", "components",
    "count_maximal_forests", "cycle_graph", "depth_lower_bound", "enumerate_graphs",
    "exchange_path", "extend_to_maximal", "find_isomorphism", "find_roots",
    "forest_distance", "format_dot", "format_edge_list", "is_bipartite",
    "is_isomorphic", "is_stable", "iterate_F", "maximal_forests", "no_root_prune",
    "parse_dot", "parse_edge_list", "parse_graph", "path_graph",
    "ring_witness_from_clique", "verify_clique_growth", "whitney_identify",
    "whitney_split", "whitney_twist",
]


def test_all_names_resolve_once():
    names = forestgraph.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(forestgraph, name)]
    assert missing == []


def test_public_surface_is_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert sorted(forestgraph.__all__) == PUBLIC_NAMES
