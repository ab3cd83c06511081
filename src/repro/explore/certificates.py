"""Algorithm 2 — subgraph-isomorphism-based certificate generation.

Given an invalid fragment ``G_map`` (a path sub-architecture, or the
whole candidate) and the violated viewpoint:

1. detach implementations, leaving the typed graphs ``G`` and ``T``;
2. enumerate every label-preserving embedding of ``G`` into ``T``;
3. widen each selected implementation to the set ``L_g+`` of library
   entries *at least as bad* in the viewpoint's monotone attribute
   (``ImplementationSearch``);
4. per embedding, emit a MILP cut forbidding the embedded structure from
   being selected together with any all-bad implementation assignment:

   ``sum(edges) + sum(bad mappings) <= |E| + |V| - 1``

   For a whole-candidate fragment the cut is disjunctive: selecting a
   strictly larger architecture (any extra boundary edge) re-opens the
   possibility, since additional structure may fix a global violation.

Every embedding yields its own cut; duplicates are dropped once, by
the engine's ``formula_key`` check. The identity embedding (or a
symmetric variant with the same widened sets, which yields the same
cut) is always among the matches, so the cut set should exclude the
current candidate. :mod:`repro.explore.engine` checks that it does and
raises instead of looping on a candidate no new cut excludes.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.arch.architecture import CandidateArchitecture
from repro.arch.library import Implementation
from repro.arch.template import MappingTemplate
from repro.contracts.viewpoints import Viewpoint
from repro.explore.encoding import Cut
from repro.explore.refinement_check import Violation
from repro.expr.constraints import Formula, Or
from repro.expr.terms import LinExpr
from repro.graph import matchers
from repro.graph.digraph import DiGraph, NodeId
from repro.graph.isomorphism import Embedding
from repro.graph.matchers import EmbeddingCache
from repro.obs.trace import Tracer


def implementation_search(
    mapping_template: MappingTemplate,
    selected: Dict[str, Implementation],
    viewpoint: Viewpoint,
    widen: bool = True,
) -> Dict[str, Optional[List[Implementation]]]:
    """The paper's ``ImplementationSearch``: per invalid node, every
    library implementation at least as bad as the selected one in the
    violated viewpoint's attribute (the selected one included).

    A node whose implementations do not carry the viewpoint's attribute
    cannot influence the violation at all; it maps to ``None``, meaning
    "any implementation" — the cut then constrains only the node's
    structure, not its mapping.
    """
    library = mapping_template.library
    widened: Dict[str, Optional[List[Implementation]]] = {}
    for node, impl in selected.items():
        if not widen:
            widened[node] = [impl]
        elif viewpoint.supports_widening and impl.has_attribute(viewpoint.attribute):
            assert viewpoint.attribute is not None and viewpoint.direction is not None
            candidates = library.at_least_as_bad(
                impl, viewpoint.attribute, viewpoint.direction
            )
            widened[node] = candidates if candidates else [impl]
        else:
            widened[node] = None
    return widened


def _boundary_edges(
    template_graph: DiGraph, image_nodes: Set[NodeId]
) -> List[Tuple[NodeId, NodeId]]:
    """Template candidate edges crossing the fragment boundary."""
    crossing: List[Tuple[NodeId, NodeId]] = []
    for src, dst in template_graph.edges():
        if (src in image_nodes) != (dst in image_nodes):
            crossing.append((src, dst))
    return crossing


def _symmetry_colors(
    pattern: DiGraph,
    widened: Dict[str, Optional[List[Implementation]]],
) -> Dict[NodeId, Hashable]:
    """Per pattern node, a key of its cut contribution besides structure.

    Two pattern nodes whose colors agree produce *identical* cut terms
    when their images are swapped, so the matcher may treat them as
    interchangeable (it still verifies structural interchangeability
    itself). The color is the widened implementation set — ``None``
    (any implementation) is itself a valid color.
    """
    colors: Dict[NodeId, Hashable] = {}
    for node in pattern.nodes():
        bad = widened.get(str(node))
        colors[node] = (
            None if bad is None else tuple(sorted(impl.name for impl in bad))
        )
    return colors


def generate_cuts(
    mapping_template: MappingTemplate,
    candidate: CandidateArchitecture,
    violation: Violation,
    use_isomorphism: bool = True,
    widen: bool = True,
    embedding_cache: Optional[EmbeddingCache] = None,
    tracer: Optional[Tracer] = None,
) -> List[Cut]:
    """Produce the certificate constraint set ``c`` for one violation.

    One cut per embedding, in enumeration order. ``embedding_cache`` is
    an optional :class:`~repro.graph.matchers.EmbeddingCache` scoped to
    one exploration run; repeated fragments then skip re-enumeration.
    Each enumeration is an ``embedding`` phase span of ``tracer`` (the
    exploration run's :class:`~repro.obs.trace.Tracer`; a fresh
    sink-less one when omitted).
    """
    fragment = violation.sub_architecture
    pattern = fragment.graph()
    template_graph = mapping_template.template.graph()

    widened = implementation_search(
        mapping_template, fragment.implementations(), violation.viewpoint, widen
    )

    if use_isomorphism:
        colors = _symmetry_colors(pattern, widened)
        cache_key = None
        embeddings = None
        if embedding_cache is not None:
            cache_key = EmbeddingCache.key(pattern, colors)
            embeddings = embedding_cache.get(cache_key)
        if embeddings is None:
            by_color: Dict[Hashable, List[NodeId]] = {}
            for node, color in colors.items():
                by_color.setdefault(color, []).append(node)
            symmetry_classes = [
                group for group in by_color.values() if len(group) > 1
            ]
            with (tracer or Tracer()).phase("embedding") as span:
                embeddings = matchers.find_embeddings(
                    template_graph, pattern, symmetry_classes=symmetry_classes
                )
                span.attrs.update(
                    viewpoint=violation.viewpoint.name,
                    pattern_nodes=len(pattern.nodes()),
                    pattern_edges=len(pattern.edges()),
                    embeddings=len(embeddings),
                )
            if embedding_cache is not None:
                embedding_cache.put(cache_key, embeddings)
    else:
        embeddings = [{node: node for node in pattern.nodes()}]

    cuts: List[Cut] = []
    whole = fragment.is_whole_candidate
    for embedding in embeddings:
        cuts.append(
            _cut_for_embedding(
                mapping_template,
                template_graph,
                pattern,
                embedding,
                widened,
                violation.viewpoint,
                whole_candidate=whole,
            )
        )
    return cuts


def _cut_for_embedding(
    mapping_template: MappingTemplate,
    template_graph: DiGraph,
    pattern: DiGraph,
    embedding: Embedding,
    widened: Dict[str, List[Implementation]],
    viewpoint: Viewpoint,
    whole_candidate: bool,
) -> Cut:
    edge_vars = [
        mapping_template.edge(str(embedding[src]), str(embedding[dst]))
        for src, dst in pattern.edges()
    ]
    mapping_vars = []
    constrained_nodes = 0
    for node in pattern.nodes():
        bad_impls = widened[str(node)]
        if bad_impls is None:
            # Any implementation of this node yields the same violation:
            # constrain the structure only.
            continue
        constrained_nodes += 1
        image = str(embedding[node])
        for impl in bad_impls:
            mapping_vars.append(mapping_template.mapping(image, impl.name))

    num_edges = len(edge_vars)
    structure_and_mappings = LinExpr.sum(edge_vars) + LinExpr.sum(mapping_vars)
    exclusion: Formula = (
        structure_and_mappings <= num_edges + constrained_nodes - 1
    )

    image_nodes = {embedding[node] for node in pattern.nodes()}
    description = (
        f"{viewpoint.name}: exclude "
        + ",".join(sorted(str(n) for n in image_nodes))
    )
    if not whole_candidate:
        return Cut(exclusion, description)

    boundary = _boundary_edges(template_graph, image_nodes)
    if not boundary:
        return Cut(exclusion, description + " (whole, closed)")
    boundary_vars = [
        mapping_template.edge(str(src), str(dst)) for src, dst in boundary
    ]
    grow = LinExpr.sum(edge_vars) + LinExpr.sum(boundary_vars) >= num_edges + 1
    return Cut(Or(grow, exclusion), description + " (whole)")
