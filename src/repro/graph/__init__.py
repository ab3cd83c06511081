"""Graph substrate: typed digraph, path search, subgraph isomorphism."""

from repro.graph.digraph import DiGraph, Edge, NodeId
from repro.graph.paths import (
    Path,
    all_source_sink_paths,
    path_edges,
    path_graph,
    simple_paths,
)
from repro.graph.isomorphism import (
    Embedding,
    SubgraphMatcher,
    are_isomorphic,
    find_embeddings,
)
from repro.graph.dot import to_dot, write_dot
from repro.graph.matchers import EmbeddingCache

__all__ = [
    "DiGraph",
    "Edge",
    "NodeId",
    "Path",
    "all_source_sink_paths",
    "path_edges",
    "path_graph",
    "simple_paths",
    "Embedding",
    "SubgraphMatcher",
    "are_isomorphic",
    "find_embeddings",
    "to_dot",
    "write_dot",
    "EmbeddingCache",
]
