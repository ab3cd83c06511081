"""Requirement audit for a selected architecture.

Beyond the engine's boolean accept/reject, designers want to know *how
much margin* a selected architecture has against each system-level
requirement. The audit re-derives, per viewpoint and per source-to-sink
route, the requirement bound and the architecture's worst-case value,
reporting the slack. Works for the built-in timing and flow/power
viewpoints; custom viewpoints fall back to the refinement verdict.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.arch.architecture import CandidateArchitecture
from repro.arch.template import MappingTemplate
from repro.explore.refinement_check import RefinementChecker
from repro.graph.paths import all_source_sink_paths
from repro.spec.base import Specification, ViewpointSpec
from repro.spec.flow import FlowSpec
from repro.spec.timing import TimingSpec


class AuditEntry:
    """One audited requirement instance."""

    __slots__ = ("viewpoint", "scope", "bound", "value", "holds")

    def __init__(
        self,
        viewpoint: str,
        scope: str,
        bound: Optional[float],
        value: Optional[float],
        holds: bool,
    ) -> None:
        self.viewpoint = viewpoint
        self.scope = scope
        self.bound = bound
        self.value = value
        self.holds = holds

    @property
    def slack(self) -> Optional[float]:
        if self.bound is None or self.value is None:
            return None
        return self.bound - self.value

    def __repr__(self) -> str:
        verdict = "ok" if self.holds else "VIOLATED"
        if self.bound is None:
            return f"AuditEntry({self.viewpoint}, {self.scope}: {verdict})"
        return (
            f"AuditEntry({self.viewpoint}, {self.scope}: "
            f"{self.value:g}/{self.bound:g} {verdict})"
        )


class ArchitectureAudit:
    """Full audit result."""

    def __init__(self, entries: List[AuditEntry]) -> None:
        self.entries = entries

    @property
    def holds(self) -> bool:
        return all(entry.holds for entry in self.entries)

    def entries_for(self, viewpoint: str) -> List[AuditEntry]:
        return [e for e in self.entries if e.viewpoint == viewpoint]

    def worst_slack(self) -> Optional[AuditEntry]:
        """The entry with the smallest slack (tightest requirement)."""
        with_slack = [e for e in self.entries if e.slack is not None]
        if not with_slack:
            return None
        return min(with_slack, key=lambda e: e.slack)

    def render(self) -> str:
        lines = ["architecture audit:"]
        for entry in self.entries:
            verdict = "ok" if entry.holds else "VIOLATED"
            if entry.bound is not None and entry.value is not None:
                lines.append(
                    f"  [{entry.viewpoint}] {entry.scope}: "
                    f"{entry.value:g} vs bound {entry.bound:g} "
                    f"(slack {entry.slack:g}) {verdict}"
                )
            else:
                lines.append(
                    f"  [{entry.viewpoint}] {entry.scope}: {verdict}"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        verdict = "holds" if self.holds else "violated"
        return f"ArchitectureAudit({len(self.entries)} entries, {verdict})"


def _candidate_paths(
    candidate: CandidateArchitecture, mapping_template: MappingTemplate
) -> List[Sequence[str]]:
    graph = candidate.graph()
    template = mapping_template.template
    sources = [
        c.name
        for c in template.source_components()
        if candidate.is_instantiated(c.name)
    ]
    sinks = [
        c.name
        for c in template.sink_components()
        if candidate.is_instantiated(c.name)
    ]
    return [list(p) for p in all_source_sink_paths(graph, sources, sinks)]


def _audit_timing_path(
    mapping_template: MappingTemplate,
    candidate: CandidateArchitecture,
    spec: TimingSpec,
    path: Sequence[str],
) -> AuditEntry:
    from repro.explore.baseline import worst_case_path_latency

    expr = worst_case_path_latency(mapping_template, path, spec)
    value = expr.substitute(candidate.attribute_assignment()).constant
    bound = spec.max_latency
    return AuditEntry(
        spec.name,
        f"{path[0]}->{path[-1]}",
        bound if math.isfinite(bound) else None,
        value,
        value <= bound + 1e-9,
    )


def _audit_flow_path(
    mapping_template: MappingTemplate,
    candidate: CandidateArchitecture,
    spec: FlowSpec,
    path: Sequence[str],
) -> AuditEntry:
    assert spec.loss_attribute is not None
    template = mapping_template.template
    value = sum(
        candidate.implementation_of(name).attribute(spec.loss_attribute)
        for name in path
        if spec.loss_attribute in template.component(name).ctype.attributes
        and candidate.implementation_of(name).has_attribute(spec.loss_attribute)
    )
    bound = spec.path_loss_budget
    return AuditEntry(
        spec.name,
        f"{path[0]}->{path[-1]}",
        bound,
        value,
        bound is None or value <= bound + 1e-9,
    )


def _audit_flow_global(
    mapping_template: MappingTemplate,
    candidate: CandidateArchitecture,
    spec: FlowSpec,
) -> List[AuditEntry]:
    template = mapping_template.template
    entries: List[AuditEntry] = []
    delivered = sum(
        component.consumed_flow
        for component in template.sink_components()
        if candidate.is_instantiated(component.name)
    )
    if spec.min_delivery > 0:
        entries.append(
            AuditEntry(
                spec.name,
                "delivered flow (>= bound)",
                spec.min_delivery,
                delivered,
                delivered >= spec.min_delivery - 1e-9,
            )
        )
    if spec.loss_attribute and math.isfinite(spec.max_loss):
        total_loss = sum(
            impl.attribute(spec.loss_attribute)
            for impl in candidate.selected_impls.values()
            if impl.has_attribute(spec.loss_attribute)
        )
        entries.append(
            AuditEntry(
                spec.name,
                "total losses",
                spec.max_loss,
                total_loss,
                total_loss <= spec.max_loss + 1e-9,
            )
        )
    return entries


def audit_architecture(
    mapping_template: MappingTemplate,
    specification: Specification,
    candidate: CandidateArchitecture,
) -> ArchitectureAudit:
    """Audit ``candidate`` against every system-level requirement."""
    entries: List[AuditEntry] = []
    paths = _candidate_paths(candidate, mapping_template)
    checker = RefinementChecker(mapping_template, specification)

    for spec in specification.viewpoint_specs:
        if isinstance(spec, TimingSpec) and math.isfinite(spec.max_latency):
            for path in paths:
                entries.append(
                    _audit_timing_path(mapping_template, candidate, spec, path)
                )
        elif isinstance(spec, FlowSpec):
            if spec.viewpoint.path_specific:
                for path in paths:
                    entries.append(
                        _audit_flow_path(mapping_template, candidate, spec, path)
                    )
            else:
                entries.extend(
                    _audit_flow_global(mapping_template, candidate, spec)
                )
        else:
            # Custom viewpoint: fall back to the refinement oracle.
            violation = checker.check(candidate)
            holds = violation is None or violation.viewpoint.name != spec.name
            entries.append(
                AuditEntry(spec.name, "refinement", None, None, holds)
            )
    return ArchitectureAudit(entries)
