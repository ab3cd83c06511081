"""Embedding enumeration as certificate generation sees it.

The certificate generator only needs one operation — enumerate all
label-preserving sub-monomorphisms of a pattern into a host — and calls
:func:`find_embeddings` (the bitset VF2 engine of
:mod:`repro.graph.isomorphism`) through this module's globals, so one
name covers every enumeration Algorithm 2 runs. networkx's
``DiGraphMatcher`` stands in for DotMotif in the paper's tool chain as
the tests' independent oracle.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.graph.digraph import DiGraph, NodeId
from repro.graph.isomorphism import Embedding, find_embeddings

__all__ = ["EmbeddingCache", "find_embeddings"]


class EmbeddingCache:
    """Per-run memo for embedding enumerations.

    The exploration loop re-derives the same detached fragment across
    many iterations (the host template never changes within a run), so
    :func:`repro.explore.certificates.generate_cuts` can skip repeated
    enumeration entirely. Keys cover everything the result depends on:
    the pattern's full structure (nodes with labels, edges) and the
    symmetry colors supplied by the caller. The host is deliberately
    *not* part of the key — one cache serves one exploration run over
    one template; create a fresh cache per run.
    """

    __slots__ = ("_store", "hits", "misses")

    def __init__(self) -> None:
        self._store: Dict[Hashable, List[Embedding]] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(
        pattern: DiGraph,
        colors: Optional[Dict[NodeId, Hashable]] = None,
    ) -> Hashable:
        nodes: Tuple = tuple(
            sorted(
                (
                    (node, pattern.label(node), colors.get(node) if colors else None)
                    for node in pattern.nodes()
                ),
                key=str,
            )
        )
        edges: Tuple = tuple(sorted(pattern.edges(), key=str))
        return (nodes, edges)

    def get(self, key: Hashable) -> Optional[List[Embedding]]:
        found = self._store.get(key)
        if found is not None:
            self.hits += 1
            # Copy the mappings: callers treat embeddings as their own.
            return [dict(embedding) for embedding in found]
        self.misses += 1
        return None

    def put(self, key: Hashable, embeddings: List[Embedding]) -> None:
        self._store[key] = [dict(embedding) for embedding in embeddings]
