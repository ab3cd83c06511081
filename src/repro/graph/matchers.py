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

from typing import Dict, Hashable, Optional, Tuple

import numpy as np

from repro.graph.digraph import DiGraph, NodeId
from repro.graph.isomorphism import find_embeddings

__all__ = ["EmbeddingCache", "find_embeddings"]


class EmbeddingCache:
    """Per-run memo for embedding enumerations.

    The exploration loop re-derives the same detached fragment across
    many iterations (the host template never changes within a run), so
    :func:`repro.explore.certificates.generate_cuts` can skip repeated
    enumeration entirely. It stores each enumeration as an
    (embeddings x pattern nodes) array of host node indices, laid out
    by the caller; the array is made read-only, so a hit hands out the
    stored array itself. Keys cover everything the result depends on:
    the pattern's full structure (nodes with labels, edges) and the
    symmetry colors supplied by the caller. The host is deliberately
    *not* part of the key — one cache serves one exploration run over
    one template; create a fresh cache per run.
    """

    __slots__ = ("_store", "hits", "misses")

    def __init__(self) -> None:
        self._store: Dict[Hashable, np.ndarray] = {}
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

    def get(self, key: Hashable) -> Optional[np.ndarray]:
        found = self._store.get(key)
        if found is not None:
            self.hits += 1
        else:
            self.misses += 1
        return found

    def put(self, key: Hashable, images: np.ndarray) -> None:
        images.flags.writeable = False
        self._store[key] = images
