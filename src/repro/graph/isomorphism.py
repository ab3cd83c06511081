"""Subgraph isomorphism enumeration (VF2 style, bitset engine).

The certificate generator (Algorithm 2 of the paper) needs *all*
embeddings of the detached invalid architecture ``G`` inside the
detached template ``T``. Per Definition 4 and the surrounding text
("``V' ⊆ V`` and ``E' ⊆ E``"), an embedding is an injective map that
preserves node labels (component types) and maps every pattern edge to a
template edge — a *sub-monomorphism*, not necessarily induced. An
induced mode is also provided.

The engine keeps the VF2 recursion (grow a partial mapping one candidate
pair at a time) but compiles both graphs to integer bitsets first:

* host nodes get dense indices (in ``str`` order, which preserves the
  enumeration order of the previous set-based implementation) and
  successor/predecessor adjacency bitmasks;
* every pattern node gets a precomputed *candidate domain* mask — hosts
  passing the label and degree prefilters — so per-level filtering is a
  handful of AND operations instead of set algebra and per-node checks;
* adjacency consistency with the mapped core (and the non-adjacency
  checks of induced mode) compile to mask intersections resolved level
  by level.

Optionally, callers may declare *symmetry classes* — groups of pattern
nodes they consider interchangeable (same downstream effect, e.g. equal
widened implementation sets in certificate generation). The matcher
verifies each group is structurally interchangeable (equal label, equal
neighborhoods outside the group, no intra-group edges — i.e. swapping
two members is a pattern automorphism) and then enumerates only the
representative with ascending host indices per class. Each skipped
embedding is an automorphic variant of one that is kept: it has the
same node and edge image and, under the caller's notion of
interchangeability, the same downstream effect, so enumeration just
never expands the redundant subtrees.

This replaces DotMotif in the original tool chain; tests cross-check the
enumeration against networkx's DiGraphMatcher.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.graph.digraph import DiGraph, NodeId

Embedding = Dict[NodeId, NodeId]
LabelMatcher = Callable[[Optional[str], Optional[str]], bool]

# Constraint kinds compiled per recursion level (see _compile).
_REQ_IN = 0   # pattern edge earlier->current: host image must be a successor
_REQ_OUT = 1  # pattern edge current->earlier: host image must be a predecessor
_NOT_IN = 2   # induced mode: absent pattern edge forbids the host edge
_NOT_OUT = 3


def _default_label_match(pattern_label: Optional[str], host_label: Optional[str]) -> bool:
    return pattern_label == host_label


class SubgraphMatcher:
    """Enumerates embeddings of ``pattern`` into ``host``."""

    def __init__(
        self,
        host: DiGraph,
        pattern: DiGraph,
        induced: bool = False,
        label_match: LabelMatcher = _default_label_match,
        symmetry_classes: Optional[Iterable[Iterable[NodeId]]] = None,
    ) -> None:
        self.host = host
        self.pattern = pattern
        self.induced = induced
        self.label_match = label_match
        self.symmetry_classes = symmetry_classes
        self._order = self._matching_order()
        self._compiled = False

    # -- public API ------------------------------------------------------------

    def find_all(self, limit: int = 0) -> List[Embedding]:
        """All embeddings (pattern node -> host node); optional cap."""
        result: List[Embedding] = []
        for embedding in self.iter_embeddings():
            result.append(embedding)
            if limit and len(result) >= limit:
                break
        return result

    def exists(self) -> bool:
        """True iff at least one embedding exists."""
        return next(self.iter_embeddings(), None) is not None

    def iter_embeddings(self) -> Iterator[Embedding]:
        if self.pattern.num_nodes == 0:
            yield {}
            return
        if self.pattern.num_nodes > self.host.num_nodes:
            return
        self._compile()
        if not all(self._domains):
            return
        images = [0] * len(self._order)
        yield from self._extend(0, images, 0)

    # -- matching order -----------------------------------------------------------

    def _matching_order(self) -> List[NodeId]:
        """Order pattern nodes so each (after the first of its component)
        is adjacent to an earlier node — keeps the core connected and the
        candidate sets small."""
        remaining = set(self.pattern.nodes())
        order: List[NodeId] = []
        placed: Set[NodeId] = set()

        def degree(node: NodeId) -> int:
            return self.pattern.in_degree(node) + self.pattern.out_degree(node)

        while remaining:
            frontier = [
                n
                for n in remaining
                if (self.pattern.successors(n) | self.pattern.predecessors(n))
                & placed
            ]
            if frontier:
                nxt = max(frontier, key=lambda n: (degree(n), str(n)))
            else:
                nxt = max(remaining, key=lambda n: (degree(n), str(n)))
            order.append(nxt)
            placed.add(nxt)
            remaining.discard(nxt)
        return order

    # -- compilation -----------------------------------------------------------

    def _compile(self) -> None:
        """Precompute host bitmasks, per-node domains, level constraints."""
        if self._compiled:
            return
        self._compiled = True
        host, pattern = self.host, self.pattern
        hosts = sorted(host.nodes(), key=str)
        index = {h: i for i, h in enumerate(hosts)}
        self._hosts = hosts

        succ = [0] * len(hosts)
        pred = [0] * len(hosts)
        for i, h in enumerate(hosts):
            for s in host.successors(h):
                succ[i] |= 1 << index[s]
            for p in host.predecessors(h):
                pred[i] |= 1 << index[p]
        self._succ, self._pred = succ, pred
        full = (1 << len(hosts)) - 1
        self._full = full

        # Candidate domains: label + degree prefilter, resolved once.
        domains: List[int] = []
        for p in self._order:
            label = pattern.label(p)
            need_in = pattern.in_degree(p)
            need_out = pattern.out_degree(p)
            mask = 0
            for i, h in enumerate(hosts):
                if not self.label_match(label, host.label(h)):
                    continue
                if host.in_degree(h) < need_in or host.out_degree(h) < need_out:
                    continue
                mask |= 1 << i
            domains.append(mask)
        self._domains = domains

        # Per level: adjacency (and induced non-adjacency) constraints
        # against every earlier level.
        level_of = {p: lvl for lvl, p in enumerate(self._order)}
        constraints: List[List[Tuple[int, int]]] = []
        for lvl, p in enumerate(self._order):
            cons: List[Tuple[int, int]] = []
            for earlier in range(lvl):
                q = self._order[earlier]
                if pattern.has_edge(q, p):
                    cons.append((earlier, _REQ_IN))
                elif self.induced:
                    cons.append((earlier, _NOT_IN))
                if pattern.has_edge(p, q):
                    cons.append((earlier, _REQ_OUT))
                elif self.induced:
                    cons.append((earlier, _NOT_OUT))
            constraints.append(cons)
        self._constraints = constraints

        # Symmetry breaking: for each verified class, chain members in
        # matching order and force ascending host indices.
        sym_prev = [-1] * len(self._order)
        for members in self._verified_classes():
            levels = sorted(level_of[m] for m in members)
            for a, b in zip(levels, levels[1:]):
                sym_prev[b] = a
        self._sym_prev = sym_prev

    def _verified_classes(self) -> List[List[NodeId]]:
        """Caller-declared classes restricted to provable automorphisms.

        A group survives only where members share a label, have no edges
        to other group members, and have identical successor/predecessor
        sets outside the group — then any transposition of two members
        is a pattern automorphism and pruning is lossless.
        """
        if not self.symmetry_classes:
            return []
        verified: List[List[NodeId]] = []
        for group in self.symmetry_classes:
            members = [n for n in group if self.pattern.has_node(n)]
            if len(members) < 2:
                continue
            group_set = set(members)
            by_signature: Dict[object, List[NodeId]] = {}
            for n in members:
                succs = self.pattern.successors(n)
                preds = self.pattern.predecessors(n)
                if succs & group_set or preds & group_set:
                    continue  # intra-group edge: not interchangeable
                signature = (
                    self.pattern.label(n),
                    frozenset(succs),
                    frozenset(preds),
                )
                by_signature.setdefault(signature, []).append(n)
            for shared in by_signature.values():
                if len(shared) > 1:
                    verified.append(shared)
        return verified

    # -- recursion -------------------------------------------------------------------

    def _extend(
        self, level: int, images: List[int], used: int
    ) -> Iterator[Embedding]:
        if level == len(self._order):
            hosts = self._hosts
            yield {
                p: hosts[images[lvl]] for lvl, p in enumerate(self._order)
            }
            return
        cand = self._domains[level] & ~used
        succ, pred, full = self._succ, self._pred, self._full
        for earlier, kind in self._constraints[level]:
            img = images[earlier]
            if kind == _REQ_IN:
                cand &= succ[img]
            elif kind == _REQ_OUT:
                cand &= pred[img]
            elif kind == _NOT_IN:
                cand &= full ^ succ[img]
            else:
                cand &= full ^ pred[img]
            if not cand:
                return
        prev = self._sym_prev[level]
        if prev >= 0:
            # Only host indices above the class predecessor's image.
            cand &= -(1 << (images[prev] + 1))
        while cand:
            low = cand & -cand
            cand ^= low
            images[level] = low.bit_length() - 1
            yield from self._extend(level + 1, images, used | low)


def find_embeddings(
    host: DiGraph,
    pattern: DiGraph,
    induced: bool = False,
    limit: int = 0,
    label_match: LabelMatcher = _default_label_match,
    symmetry_classes: Optional[Iterable[Iterable[NodeId]]] = None,
) -> List[Embedding]:
    """All label-preserving embeddings of ``pattern`` into ``host``."""
    return SubgraphMatcher(
        host, pattern, induced, label_match, symmetry_classes
    ).find_all(limit)


def are_isomorphic(a: DiGraph, b: DiGraph) -> bool:
    """Full graph isomorphism (Definition 4) via two-sided embedding."""
    if a.num_nodes != b.num_nodes or a.num_edges != b.num_edges:
        return False
    return SubgraphMatcher(b, a, induced=True).exists()
