"""Tests for embedding enumeration as certificate generation sees it.

``native`` is the module global :func:`repro.graph.matchers.find_embeddings`
that Algorithm 2 calls; ``networkx`` is DiGraphMatcher, the independent
oracle it must agree with.
"""

import networkx as nx
import pytest

from repro.graph import matchers
from repro.graph.digraph import DiGraph
from repro.graph.matchers import EmbeddingCache


def _host():
    g = DiGraph("host")
    for n, lab in [("1", "A"), ("2", "B"), ("3", "A"), ("4", "B")]:
        g.add_node(n, label=lab)
    g.add_edge("1", "2")
    g.add_edge("3", "4")
    g.add_edge("3", "2")
    return g


def _pattern():
    p = DiGraph("pattern")
    p.add_node("a", label="A")
    p.add_node("b", label="B")
    p.add_edge("a", "b")
    return p


def _to_nx(graph):
    out = nx.DiGraph()
    for node in graph.nodes():
        out.add_node(node, label=graph.label(node))
    out.add_edges_from(graph.edges())
    return out


def _networkx_embeddings(host, pattern, limit=0):
    if pattern.num_nodes == 0:
        return [{}]
    matcher = nx.algorithms.isomorphism.DiGraphMatcher(
        _to_nx(host),
        _to_nx(pattern),
        node_match=lambda a, b: a["label"] == b["label"],
    )
    embeddings = []
    for mapping in matcher.subgraph_monomorphisms_iter():
        # networkx maps host -> pattern; invert to pattern -> host.
        embeddings.append({p: h for h, p in mapping.items()})
        if limit and len(embeddings) >= limit:
            break
    return embeddings


_ENUMERATORS = {
    "native": lambda host, pattern, limit=0: matchers.find_embeddings(
        host, pattern, limit=limit
    ),
    "networkx": _networkx_embeddings,
}


@pytest.mark.parametrize("name", sorted(_ENUMERATORS))
class TestBackends:
    def test_enumeration(self, name):
        embeddings = _ENUMERATORS[name](_host(), _pattern())
        images = {(e["a"], e["b"]) for e in embeddings}
        assert images == {("1", "2"), ("3", "4"), ("3", "2")}

    def test_limit(self, name):
        embeddings = _ENUMERATORS[name](_host(), _pattern(), 2)
        assert len(embeddings) == 2

    def test_empty_pattern(self, name):
        assert _ENUMERATORS[name](_host(), DiGraph()) == [{}]


class TestEmbeddingCache:
    def test_key_covers_structure_and_colors(self):
        key = EmbeddingCache.key(_pattern(), {"a": "x", "b": "y"})
        assert key == EmbeddingCache.key(_pattern(), {"a": "x", "b": "y"})
        assert key != EmbeddingCache.key(_pattern(), {"a": "x", "b": "z"})
        reversed_edge = _pattern()
        reversed_edge.remove_edge("a", "b")
        reversed_edge.add_edge("b", "a")
        assert key != EmbeddingCache.key(reversed_edge, {"a": "x", "b": "y"})

    def test_hits_misses_and_copies(self):
        cache = EmbeddingCache()
        key = EmbeddingCache.key(_pattern())
        assert cache.get(key) is None
        cache.put(key, [{"a": "1", "b": "2"}])
        found = cache.get(key)
        assert found == [{"a": "1", "b": "2"}]
        found[0]["a"] = "mutated"
        assert cache.get(key) == [{"a": "1", "b": "2"}]
        assert (cache.hits, cache.misses) == (2, 1)
