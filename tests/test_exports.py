"""The public surface: every exported name exists, and is exported once."""

import forestgraph


def test_all_names_resolve_once():
    names = forestgraph.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(forestgraph, name)]
    assert missing == []
