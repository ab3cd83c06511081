"""Tests for the VF2-style subgraph isomorphism engine.

Enumeration counts are cross-checked against networkx's DiGraphMatcher
(monomorphism iterator) on both hand-built and random graphs.
"""

import networkx as nx
import pytest

from repro.graph.digraph import DiGraph
from repro.graph.isomorphism import (
    SubgraphMatcher,
    are_isomorphic,
    find_embeddings,
)


def _to_nx(graph: DiGraph) -> nx.DiGraph:
    result = nx.DiGraph()
    for node in graph.nodes():
        result.add_node(node, label=graph.label(node))
    result.add_edges_from(graph.edges())
    return result


def _nx_monomorphism_count(host: DiGraph, pattern: DiGraph) -> int:
    matcher = nx.algorithms.isomorphism.DiGraphMatcher(
        _to_nx(host),
        _to_nx(pattern),
        node_match=lambda a, b: a["label"] == b["label"],
    )
    return sum(1 for _ in matcher.subgraph_monomorphisms_iter())


def _path(name, labels):
    g = DiGraph(name)
    nodes = [f"{name}{i}" for i in range(len(labels))]
    for node, label in zip(nodes, labels):
        g.add_node(node, label=label)
    for a, b in zip(nodes, nodes[1:]):
        g.add_edge(a, b)
    return g


class TestBasics:
    def test_single_edge_pattern(self):
        host = DiGraph()
        for n, lab in [("1", "A"), ("2", "B"), ("3", "A"), ("4", "B")]:
            host.add_node(n, label=lab)
        host.add_edge("1", "2")
        host.add_edge("3", "4")
        host.add_edge("3", "2")
        pattern = _path("p", ["A", "B"])
        embeddings = find_embeddings(host, pattern)
        assert len(embeddings) == 3
        assert len(embeddings) == _nx_monomorphism_count(host, pattern)
        images = {(e["p0"], e["p1"]) for e in embeddings}
        assert images == {("1", "2"), ("3", "4"), ("3", "2")}

    def test_labels_restrict_matches(self):
        host = _path("h", ["A", "A", "A"])
        pattern = _path("p", ["A", "B"])
        assert find_embeddings(host, pattern) == []

    def test_direction_matters(self):
        host = DiGraph()
        host.add_node("u", label="A")
        host.add_node("v", label="A")
        host.add_edge("u", "v")
        pattern = DiGraph()
        pattern.add_node("x", label="A")
        pattern.add_node("y", label="A")
        pattern.add_edge("y", "x")
        embeddings = find_embeddings(host, pattern)
        # Only one orientation works: y->u, x->v.
        assert len(embeddings) == 1
        assert embeddings[0] == {"y": "u", "x": "v"}

    def test_empty_pattern(self):
        host = _path("h", ["A"])
        assert find_embeddings(host, DiGraph()) == [{}]

    def test_pattern_larger_than_host(self):
        assert find_embeddings(_path("h", ["A"]), _path("p", ["A", "A"])) == []

    def test_injectivity(self):
        # Pattern with two disconnected same-label nodes; host with one node.
        host = DiGraph()
        host.add_node("only", label="A")
        pattern = DiGraph()
        pattern.add_node("p1", label="A")
        pattern.add_node("p2", label="A")
        assert find_embeddings(host, pattern) == []

    def test_limit(self):
        host = _path("h", ["A"] * 6)
        pattern = _path("p", ["A", "A"])
        assert len(find_embeddings(host, pattern, limit=2)) == 2

    def test_exists(self):
        host = _path("h", ["A", "B", "A"])
        assert SubgraphMatcher(host, _path("p", ["A", "B"])).exists()
        assert not SubgraphMatcher(host, _path("q", ["B", "B"])).exists()


class TestInducedMode:
    def test_non_induced_matches_through_chords(self):
        # Host triangle a->b->c, a->c; pattern path x->y->z (non-induced
        # matches even though host has the extra chord).
        host = DiGraph()
        for n in "abc":
            host.add_node(n, label="A")
        host.add_edge("a", "b")
        host.add_edge("b", "c")
        host.add_edge("a", "c")
        pattern = _path("p", ["A", "A", "A"])
        non_induced = find_embeddings(host, pattern)
        induced = find_embeddings(host, pattern, induced=True)
        assert {tuple(sorted(e.values())) for e in non_induced} >= {
            ("a", "b", "c")
        }
        # Induced forbids the a->c chord image.
        assert all(
            not (emb[pattern.nodes()[0]] == "a" and emb[pattern.nodes()[2]] == "c")
            for emb in induced
        ) or not induced


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_graphs(self, seed):
        import random

        rng = random.Random(seed)
        host = DiGraph("host")
        labels = ["A", "B", "C"]
        n = 8
        for i in range(n):
            host.add_node(i, label=rng.choice(labels))
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.25:
                    host.add_edge(u, v)
        pattern = DiGraph("pattern")
        for i in range(3):
            pattern.add_node(f"p{i}", label=rng.choice(labels))
        pattern.add_edge("p0", "p1")
        pattern.add_edge("p1", "p2")
        ours = len(find_embeddings(host, pattern))
        theirs = _nx_monomorphism_count(host, pattern)
        assert ours == theirs

    @pytest.mark.parametrize("seed", range(5))
    def test_random_branching_patterns(self, seed):
        import random

        rng = random.Random(100 + seed)
        host = DiGraph("host")
        n = 7
        for i in range(n):
            host.add_node(i, label=rng.choice(["A", "B"]))
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.3:
                    host.add_edge(u, v)
        pattern = DiGraph("pattern")
        for i, lab in enumerate(["A", "B", "A"]):
            pattern.add_node(f"p{i}", label=lab)
        pattern.add_edge("p0", "p1")
        pattern.add_edge("p0", "p2")  # branching, not a path
        assert len(find_embeddings(host, pattern)) == _nx_monomorphism_count(
            host, pattern
        )


class TestHelpers:
    def test_are_isomorphic(self):
        a = _path("a", ["A", "B", "A"])
        b = _path("b", ["A", "B", "A"])
        c = _path("c", ["A", "A", "B"])
        assert are_isomorphic(a, b)
        assert not are_isomorphic(a, c)

    def test_are_isomorphic_size_mismatch(self):
        assert not are_isomorphic(_path("a", ["A"]), _path("b", ["A", "A"]))
