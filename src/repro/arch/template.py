"""Templates and mapping templates (Section II-B, Fig. 2).

A :class:`Template` is the design space skeleton: component slots
(typed nodes) plus the candidate interconnections exploration may pick
from, with designated source and sink type partitions. A
:class:`MappingTemplate` augments it with the implementation library and
owns the decision variables:

* ``e(i, j)``  — binary: candidate edge selected;
* ``m(i, x)``  — binary: slot ``i`` mapped to implementation ``x``;
* ``u(attr, i)`` — continuous: attribute value inherited from the
  selected implementation (pinned by the interconnection contract);
* ``flow(i, j)``, ``time(i, j)``, ``nominal_time(i, j)`` — continuous
  per-edge quantities referenced by the flow and timing contracts.

All variables are created once and cached, so component-level contracts,
system-level contracts, and MILP cuts all talk about the same objects.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.exceptions import ArchitectureError
from repro.arch.component import Component, ComponentType
from repro.arch.library import Implementation, Library
from repro.expr.terms import Var, binary, continuous
from repro.graph.digraph import DiGraph

if TYPE_CHECKING:
    from repro.arch.architecture import CandidateArchitecture


class Template:
    """The architecture template ``T = (V_T, E_T)``."""

    def __init__(self, name: str = "template") -> None:
        self.name = name
        self._components: Dict[str, Component] = {}
        self._edges: List[Tuple[str, str]] = []
        self._edge_set: Set[Tuple[str, str]] = set()
        self.source_types: Set[str] = set()
        self.sink_types: Set[str] = set()

    # -- construction -------------------------------------------------------

    def add_component(self, component: Component) -> Component:
        if component.name in self._components:
            raise ArchitectureError(
                f"duplicate component name {component.name!r} in template"
            )
        self._components[component.name] = component
        return component

    def add_components(self, components: Iterable[Component]) -> None:
        for component in components:
            self.add_component(component)

    def connect(self, src: str, dst: str) -> Tuple[str, str]:
        """Declare a candidate connection between two slots."""
        for name in (src, dst):
            if name not in self._components:
                raise ArchitectureError(f"unknown component {name!r}")
        if src == dst:
            raise ArchitectureError(f"self-loop on {src!r} is not allowed")
        edge = (src, dst)
        if edge not in self._edge_set:
            self._edge_set.add(edge)
            self._edges.append(edge)
        return edge

    def connect_all(self, sources: Iterable[str], targets: Iterable[str]) -> None:
        """Candidate edges from every source slot to every target slot."""
        target_list = list(targets)
        for src in sources:
            for dst in target_list:
                self.connect(src, dst)

    def mark_source_type(self, type_name: str) -> None:
        self.source_types.add(type_name)

    def mark_sink_type(self, type_name: str) -> None:
        self.sink_types.add(type_name)

    # -- queries -----------------------------------------------------------------

    def component(self, name: str) -> Component:
        try:
            return self._components[name]
        except KeyError:
            raise ArchitectureError(f"unknown component {name!r}")

    def components(self) -> List[Component]:
        return list(self._components.values())

    def components_of_type(self, type_name: str) -> List[Component]:
        return [c for c in self._components.values() if c.type_name == type_name]

    def edges(self) -> List[Tuple[str, str]]:
        return list(self._edges)

    def in_candidates(self, name: str) -> List[str]:
        """Slots with a candidate edge *into* ``name`` (``Pi_{k-1}`` side)."""
        return [src for src, dst in self._edges if dst == name]

    def out_candidates(self, name: str) -> List[str]:
        """Slots with a candidate edge *out of* ``name`` (``Pi_{k+1}`` side)."""
        return [dst for src, dst in self._edges if src == name]

    def source_components(self) -> List[Component]:
        return [c for c in self._components.values() if c.type_name in self.source_types]

    def sink_components(self) -> List[Component]:
        return [c for c in self._components.values() if c.type_name in self.sink_types]

    @property
    def num_components(self) -> int:
        return len(self._components)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def graph(self) -> DiGraph:
        """Template as a typed digraph (labels = component type names)."""
        graph = DiGraph(self.name)
        for component in self._components.values():
            graph.add_node(component.name, label=component.type_name)
        for src, dst in self._edges:
            graph.add_edge(src, dst)
        return graph

    def __repr__(self) -> str:
        return (
            f"Template({self.name!r}, components={self.num_components}, "
            f"candidate_edges={self.num_edges})"
        )


class StructuralColumns:
    """A mapping template's structural (edge and mapping) variables as
    numbered columns: the coordinates of a certificate cut's rows.

    Column ``j`` is ``mapping_template.structural_vars()[j]``, so the
    candidate edges come first, in template order. Template nodes are
    indexed in name order, and the ``edge`` (node x node) and ``mapping``
    (node x implementation) tables turn node indices into columns by
    numpy gather; ``-1`` marks a pair with no variable.
    """

    def __init__(self, mapping_template: MappingTemplate) -> None:
        template = mapping_template.template
        self.variables = tuple(mapping_template.structural_vars())
        self.names = np.array(
            sorted(c.name for c in template.components()), dtype=object
        )
        self.node_index = {name: i for i, name in enumerate(self.names)}
        self.impl_index = {
            impl.name: k for k, impl in enumerate(mapping_template.library)
        }
        index = self.node_index
        #: (src, dst) node indices of each edge column.
        self.ends = np.array(
            [(index[src], index[dst]) for src, dst in template.edges()],
            dtype=np.intp,
        ).reshape(-1, 2)
        self.edge = np.full((len(index), len(index)), -1, dtype=np.intp)
        self.edge[self.ends[:, 0], self.ends[:, 1]] = np.arange(len(self.ends))
        self.mapping = np.full((len(index), len(self.impl_index)), -1, dtype=np.intp)
        for column, (component, impl) in enumerate(
            mapping_template.mapping_vars(), start=len(self.ends)
        ):
            self.mapping[index[component], self.impl_index[impl]] = column

    def point(self, candidate: CandidateArchitecture) -> np.ndarray:
        """The candidate's 0/1 structural assignment as a vector."""
        index = self.node_index
        point = np.zeros(len(self.variables))
        for src, dst in candidate.selected_edges:
            point[self.edge[index[src], index[dst]]] = 1.0
        for component, impl in candidate.selected_impls.items():
            point[self.mapping[index[component], self.impl_index[impl.name]]] = 1.0
        return point


class MappingTemplate:
    """Template + library + decision variables (``T_map`` of the paper)."""

    def __init__(
        self,
        template: Template,
        library: Library,
        flow_bound: Optional[float] = None,
        time_bound: float = 1000.0,
    ) -> None:
        self.template = template
        self.library = library
        #: Upper bound for per-edge flow variables; defaults to the total
        #: flow the sources can generate (needed for finite big-M).
        if flow_bound is None:
            generated = sum(
                c.generated_flow for c in template.components()
            )
            flow_bound = max(generated, 1.0)
        self.flow_bound = float(flow_bound)
        self.time_bound = float(time_bound)

        self._edge_vars: Dict[Tuple[str, str], Var] = {}
        self._mapping_vars: Dict[Tuple[str, str], Var] = {}
        self._attr_vars: Dict[Tuple[str, str], Var] = {}
        self._flow_vars: Dict[Tuple[str, str], Var] = {}
        self._time_vars: Dict[Tuple[str, str], Var] = {}
        self._nominal_vars: Dict[Tuple[str, str], Var] = {}

        for component in template.components():
            impls = library.implementations_of(component.type_name)
            if not impls:
                raise ArchitectureError(
                    f"library provides no implementation for type "
                    f"{component.type_name!r} (component {component.name!r})"
                )
            library.validate_against(component.ctype)
            for impl in impls:
                key = (component.name, impl.name)
                self._mapping_vars[key] = binary(f"m[{component.name}->{impl.name}]")
            for attr in component.ctype.attributes:
                values = [impl.attribute(attr) for impl in impls]
                lb = min(0.0, min(values))
                ub = max(0.0, max(values))
                self._attr_vars[(attr, component.name)] = continuous(
                    f"u[{attr}:{component.name}]", lb, ub
                )
        for src, dst in template.edges():
            self._edge_vars[(src, dst)] = binary(f"e[{src}->{dst}]")

    # -- variable accessors -----------------------------------------------------

    def edge(self, src: str, dst: str) -> Var:
        try:
            return self._edge_vars[(src, dst)]
        except KeyError:
            raise ArchitectureError(f"no candidate edge ({src!r}, {dst!r})")

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self._edge_vars

    def mapping(self, component: str, impl: str) -> Var:
        try:
            return self._mapping_vars[(component, impl)]
        except KeyError:
            raise ArchitectureError(
                f"no mapping variable ({component!r} -> {impl!r})"
            )

    def mappings_of(self, component: str) -> List[Tuple[Implementation, Var]]:
        """(implementation, m-var) pairs for a slot."""
        ctype = self.template.component(component).type_name
        return [
            (impl, self._mapping_vars[(component, impl.name)])
            for impl in self.library.implementations_of(ctype)
        ]

    def attribute(self, attr: str, component: str) -> Var:
        try:
            return self._attr_vars[(attr, component)]
        except KeyError:
            raise ArchitectureError(
                f"no attribute variable {attr!r} for component {component!r}"
            )

    def flow(self, src: str, dst: str) -> Var:
        key = (src, dst)
        if key not in self._edge_vars:
            raise ArchitectureError(f"no candidate edge ({src!r}, {dst!r})")
        if key not in self._flow_vars:
            self._flow_vars[key] = continuous(
                f"f[{src}->{dst}]", 0.0, self.flow_bound
            )
        return self._flow_vars[key]

    def time(self, src: str, dst: str) -> Var:
        key = (src, dst)
        if key not in self._edge_vars:
            raise ArchitectureError(f"no candidate edge ({src!r}, {dst!r})")
        if key not in self._time_vars:
            self._time_vars[key] = continuous(
                f"t[{src}->{dst}]", 0.0, self.time_bound
            )
        return self._time_vars[key]

    def nominal_time(self, src: str, dst: str) -> Var:
        key = (src, dst)
        if key not in self._edge_vars:
            raise ArchitectureError(f"no candidate edge ({src!r}, {dst!r})")
        if key not in self._nominal_vars:
            self._nominal_vars[key] = continuous(
                f"tau[{src}->{dst}]", 0.0, self.time_bound
            )
        return self._nominal_vars[key]

    # -- bulk views ------------------------------------------------------------------

    def edge_vars(self) -> Dict[Tuple[str, str], Var]:
        return dict(self._edge_vars)

    def mapping_vars(self) -> Dict[Tuple[str, str], Var]:
        return dict(self._mapping_vars)

    def structural_vars(self) -> List[Var]:
        """All e and m variables (the candidate-defining assignment)."""
        return list(self._edge_vars.values()) + list(self._mapping_vars.values())

    @functools.cached_property
    def structural_columns(self) -> StructuralColumns:
        """:meth:`structural_vars` as numbered columns, built once."""
        return StructuralColumns(self)

    # -- graphs ---------------------------------------------------------------------

    def mapping_graph(self) -> DiGraph:
        """Template graph augmented with implementation nodes and dashed
        mapping edges (Fig. 2 middle picture) — for visualization."""
        graph = self.template.graph()
        for component in self.template.components():
            for impl in self.library.implementations_of(component.type_name):
                impl_node = f"impl:{impl.name}"
                if not graph.has_node(impl_node):
                    graph.add_node(
                        impl_node,
                        label=f"impl:{impl.type_name}",
                        shape="box",
                        display=impl.name,
                    )
                graph.add_edge(component.name, impl_node, style="dashed")
        return graph

    def __repr__(self) -> str:
        return (
            f"MappingTemplate({self.template.name!r}, "
            f"edges={len(self._edge_vars)}, mappings={len(self._mapping_vars)})"
        )
