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

   For a whole-candidate fragment, selecting a strictly larger
   architecture must lift the cut, since extra structure may fix a
   global violation. Every template edge crossing the image's boundary
   therefore enters the row negated (a canonical no-good cut, Balas &
   Jeroslow 1972):

   ``sum(edges) + sum(bad mappings) - sum(boundary edges) <= |E| + |V| - 1``

   The variables are binary and the interconnection contract allows at
   most one implementation per slot, so the first two sums reach
   ``|E| + |V|`` only on the embedded fragment with all-bad
   implementations, and the row fails only if no boundary edge is
   selected too: "grow, or exclude" as one row.

Every certificate is one sparse row over the template's structural
columns. The cuts of all embeddings of a fragment are built at once
(numpy gathers over an embeddings x pattern-nodes index array); a cut's
``Formula`` is built only when something reads it. Every embedding
yields its own cut; duplicates are dropped once, by the engine's check
of each cut's key (its sorted +1 columns, sorted -1 columns and bound).
The identity embedding (or a
symmetric variant with the same widened sets, which yields the same
cut) is always among the matches, so the cut set should exclude the
current candidate. :mod:`repro.explore.engine` checks that it does and
raises instead of looping on a candidate no new cut excludes.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

import numpy as np

from repro.arch.architecture import CandidateArchitecture
from repro.arch.library import Implementation
from repro.contracts.viewpoints import Viewpoint
from repro.arch.template import MappingTemplate, StructuralColumns
from repro.explore.encoding import Cut
from repro.explore.refinement_check import Violation
from repro.graph import matchers
from repro.graph.digraph import DiGraph, NodeId
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
    columns = mapping_template.structural_columns
    widened = implementation_search(
        mapping_template, fragment.implementations(), violation.viewpoint, widen
    )
    # ``images`` is (embeddings x pattern nodes) template node indices;
    # column slot[node] holds the image of ``node``. Nodes go in name
    # order, so patterns sharing a cache key share one column layout.
    slot = {node: p for p, node in enumerate(sorted(pattern.nodes(), key=str))}

    if not use_isomorphism:
        images = np.array([[columns.node_index[node] for node in slot]], dtype=np.intp)
    else:
        colors = _symmetry_colors(pattern, widened)
        cache_key = None
        images = None
        if embedding_cache is not None:
            cache_key = EmbeddingCache.key(pattern, colors)
            images = embedding_cache.get(cache_key)
        if images is None:
            by_color: Dict[Hashable, List[NodeId]] = {}
            for node, color in colors.items():
                by_color.setdefault(color, []).append(node)
            symmetry_classes = [
                group for group in by_color.values() if len(group) > 1
            ]
            with (tracer or Tracer()).phase("embedding") as span:
                embeddings = matchers.find_embeddings(
                    mapping_template.template.graph(),
                    pattern,
                    symmetry_classes=symmetry_classes,
                )
                span.attrs.update(
                    viewpoint=violation.viewpoint.name,
                    pattern_nodes=len(pattern.nodes()),
                    pattern_edges=len(pattern.edges()),
                    embeddings=len(embeddings),
                )
            images = np.array(
                [
                    [columns.node_index[embedding[node]] for node in slot]
                    for embedding in embeddings
                ],
                dtype=np.intp,
            ).reshape(len(embeddings), len(slot))
            if embedding_cache is not None:
                embedding_cache.put(cache_key, images)

    return _cuts_for_images(
        columns,
        pattern,
        slot,
        images,
        widened,
        violation.viewpoint,
        whole_candidate=fragment.is_whole_candidate,
    )


def _cuts_for_images(
    columns: StructuralColumns,
    pattern: DiGraph,
    slot: Dict[NodeId, int],
    images: np.ndarray,
    widened: Dict[str, Optional[List[Implementation]]],
    viewpoint: Viewpoint,
    whole_candidate: bool,
) -> List[Cut]:
    """One cut per row of ``images``, built for all rows at once by
    gathering columns from the :class:`StructuralColumns` tables."""
    edges = pattern.edges()
    edge_columns = columns.edge[
        images[:, [slot[src] for src, _ in edges]],
        images[:, [slot[dst] for _, dst in edges]],
    ]
    parts = [edge_columns]
    for node in pattern.nodes():
        bad_impls = widened[str(node)]
        if bad_impls is None:
            # Any implementation of this node yields the same violation:
            # constrain the structure only.
            continue
        parts.append(
            columns.mapping[
                images[:, [slot[node]]],
                [columns.impl_index[impl.name] for impl in bad_impls],
            ]
        )
    constrained_nodes = len(parts) - 1
    # ``sum(edges) + sum(bad mappings) <= |E| + |V| - 1``, rows sorted
    # into the deduplication key.
    rows = np.concatenate(parts, axis=1)
    bound = float(len(edges) + constrained_nodes - 1)
    sorted_rows = np.sort(rows, axis=1)
    image_names = columns.names[np.sort(images, axis=1)].tolist()
    prefix = f"{viewpoint.name}: exclude "

    if whole_candidate:
        # Template edges crossing each image's boundary.
        inside = np.zeros((len(images), len(columns.names)), dtype=bool)
        inside[np.arange(len(images))[:, None], images] = True
        crossing = inside[:, columns.ends[:, 0]] != inside[:, columns.ends[:, 1]]

    ones = np.ones(rows.shape[1])
    boundary = np.zeros(0, dtype=np.intp)
    cuts: List[Cut] = []
    for i, row in enumerate(rows):
        row_columns, coefs = row, ones
        description = prefix + ",".join(image_names[i])
        if whole_candidate:
            boundary = np.flatnonzero(crossing[i])
            row_columns = np.concatenate([row, boundary])
            coefs = np.concatenate([ones, -np.ones(len(boundary))])
            description += " (whole)" if len(boundary) else " (whole, closed)"
        key = (sorted_rows[i].tobytes(), boundary.tobytes(), bound)
        cuts.append(
            Cut(row_columns, coefs, bound, columns.variables, key, description)
        )
    return cuts
