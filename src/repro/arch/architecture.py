"""Candidate architectures (the ``A_map`` of the paper).

A :class:`CandidateArchitecture` freezes one assignment of the edge and
mapping variables of a :class:`repro.arch.template.MappingTemplate`
— normally the solution of the Problem-2 MILP — and offers the views the
rest of the pipeline needs: the selected graph, per-slot implementation
choices, the structural variable assignment for contract substitution,
and path sub-architectures for compositional refinement.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ArchitectureError
from repro.arch.component import Component
from repro.arch.library import Implementation
from repro.arch.template import MappingTemplate
from repro.expr.terms import Var
from repro.graph.digraph import DiGraph
from repro.graph.paths import path_edges


class CandidateArchitecture:
    """A selected mapping: chosen edges plus chosen implementations."""

    def __init__(
        self,
        mapping_template: MappingTemplate,
        selected_edges: Sequence[Tuple[str, str]],
        selected_impls: Mapping[str, Implementation],
    ) -> None:
        self.mapping_template = mapping_template
        self.selected_edges: List[Tuple[str, str]] = list(selected_edges)
        self.selected_impls: Dict[str, Implementation] = dict(selected_impls)
        template = mapping_template.template
        for src, dst in self.selected_edges:
            if not mapping_template.has_edge(src, dst):
                raise ArchitectureError(
                    f"selected edge ({src!r}, {dst!r}) is not a candidate edge"
                )
        for name, impl in self.selected_impls.items():
            expected = template.component(name).type_name
            if impl.type_name != expected:
                raise ArchitectureError(
                    f"component {name!r} of type {expected!r} mapped to "
                    f"implementation {impl.name!r} of type {impl.type_name!r}"
                )

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_assignment(
        cls,
        mapping_template: MappingTemplate,
        assignment: Mapping[Var, float],
    ) -> "CandidateArchitecture":
        """Build from a solver assignment over the structural variables."""
        selected_edges = [
            key
            for key, var in mapping_template.edge_vars().items()
            if assignment.get(var, 0.0) >= 0.5
        ]
        selected_impls: Dict[str, Implementation] = {}
        for (component, impl_name), var in mapping_template.mapping_vars().items():
            if assignment.get(var, 0.0) >= 0.5:
                if component in selected_impls:
                    raise ArchitectureError(
                        f"component {component!r} mapped to two implementations"
                    )
                selected_impls[component] = mapping_template.library.get(impl_name)
        return cls(mapping_template, selected_edges, selected_impls)

    # -- queries -------------------------------------------------------------------

    def is_instantiated(self, component: str) -> bool:
        return component in self.selected_impls

    def instantiated_components(self) -> List[Component]:
        template = self.mapping_template.template
        return [template.component(name) for name in sorted(self.selected_impls)]

    def implementation_of(self, component: str) -> Implementation:
        try:
            return self.selected_impls[component]
        except KeyError:
            raise ArchitectureError(f"component {component!r} is not instantiated")

    @property
    def cost(self) -> float:
        """Weighted cost of the selected implementations (paper objective)."""
        template = self.mapping_template.template
        return sum(
            template.component(name).weight * impl.cost
            for name, impl in self.selected_impls.items()
        )

    # -- graphs ----------------------------------------------------------------------

    def graph(self) -> DiGraph:
        """Selected architecture as a typed digraph.

        Nodes carry the chosen implementation name in the ``impl`` attr.
        """
        template = self.mapping_template.template
        graph = DiGraph(f"{template.name}:candidate")
        for name, impl in self.selected_impls.items():
            component = template.component(name)
            graph.add_node(name, label=component.type_name, impl=impl.name)
        for src, dst in self.selected_edges:
            # Edges between non-instantiated slots cannot occur in a
            # contract-consistent candidate, but guard anyway.
            if graph.has_node(src) and graph.has_node(dst):
                graph.add_edge(src, dst)
        return graph

    def mapping_graph(self) -> DiGraph:
        """Selected architecture plus implementation nodes (Fig. 4 style)."""
        graph = self.graph()
        for name, impl in self.selected_impls.items():
            impl_node = f"impl:{impl.name}"
            if not graph.has_node(impl_node):
                graph.add_node(
                    impl_node,
                    label=f"impl:{impl.type_name}",
                    shape="box",
                    display=impl.name,
                )
            graph.add_edge(name, impl_node, style="dashed")
        return graph

    def sub_architecture(self, nodes: Sequence[str]) -> "SubArchitecture":
        """Restrict to a path/subset of instantiated slots (Alg. 1 line 8)."""
        missing = [n for n in nodes if n not in self.selected_impls]
        if missing:
            raise ArchitectureError(
                f"nodes not instantiated in candidate: {missing}"
            )
        edges = [
            (src, dst)
            for src, dst in path_edges(list(nodes))
        ]
        for src, dst in edges:
            if (src, dst) not in self.selected_edges:
                raise ArchitectureError(
                    f"path edge ({src!r}, {dst!r}) is not selected"
                )
        return SubArchitecture(self, list(nodes), edges)

    def whole_architecture(self) -> "SubArchitecture":
        """The candidate itself viewed as an (improper) sub-architecture."""
        return SubArchitecture(
            self, sorted(self.selected_impls), list(self.selected_edges)
        )

    # -- assignments --------------------------------------------------------------------

    def structural_assignment(self) -> Dict[Var, float]:
        """Values of every e/m variable under this candidate (0 or 1)."""
        assignment: Dict[Var, float] = {}
        edges = set(self.selected_edges)
        for key, var in self.mapping_template.edge_vars().items():
            assignment[var] = 1.0 if key in edges else 0.0
        selected = {
            (component, impl.name) for component, impl in self.selected_impls.items()
        }
        for key, var in self.mapping_template.mapping_vars().items():
            assignment[var] = 1.0 if key in selected else 0.0
        return assignment

    def attribute_assignment(self) -> Dict[Var, float]:
        """Values of the u(attr, i) variables implied by the mapping."""
        assignment: Dict[Var, float] = {}
        template = self.mapping_template.template
        for component in template.components():
            for attr in component.ctype.attributes:
                var = self.mapping_template.attribute(attr, component.name)
                impl = self.selected_impls.get(component.name)
                assignment[var] = impl.attribute(attr) if impl else 0.0
        return assignment

    def __repr__(self) -> str:
        return (
            f"CandidateArchitecture(edges={len(self.selected_edges)}, "
            f"instantiated={len(self.selected_impls)}, cost={self.cost:g})"
        )


class SubArchitecture:
    """A fragment of a candidate: the ``G_map`` passed to Algorithm 2."""

    __slots__ = ("candidate", "nodes", "edges")

    def __init__(
        self,
        candidate: CandidateArchitecture,
        nodes: List[str],
        edges: List[Tuple[str, str]],
    ) -> None:
        self.candidate = candidate
        self.nodes = nodes
        self.edges = edges

    @property
    def is_whole_candidate(self) -> bool:
        """Whether this fragment covers the entire candidate
        (``G_map = A_map`` branch of Algorithm 2)."""
        return set(self.nodes) == set(self.candidate.selected_impls) and set(
            self.edges
        ) == set(self.candidate.selected_edges)

    def graph(self) -> DiGraph:
        """Detached typed graph of the fragment (implementations dropped,
        Algorithm 2 line 4)."""
        template = self.candidate.mapping_template.template
        graph = DiGraph("invalid-architecture")
        for name in self.nodes:
            graph.add_node(name, label=template.component(name).type_name)
        for src, dst in self.edges:
            graph.add_edge(src, dst)
        return graph

    def implementations(self) -> Dict[str, Implementation]:
        """Per-node selected implementations (``L_g`` of Algorithm 2)."""
        return {name: self.candidate.implementation_of(name) for name in self.nodes}

    def __repr__(self) -> str:
        return f"SubArchitecture(nodes={self.nodes})"
