"""Baseline explorers the paper compares against.

Two ArchEx-style baselines:

* :class:`MonolithicExplorer` — what ArchEx fundamentally is: one MILP
  that encodes the *system-level* requirements directly, up front. Flow
  balance is linear in the flow variables; end-to-end timing is compiled
  by enumerating every source-to-sink path of the *template* and adding
  an implication "all path edges selected -> worst-case path latency
  within the deadline". Template-path enumeration is exactly why this
  formulation blows up with the template size (Fig. 5a).

* :func:`lazy_nogood_explorer` — the lazy CEGIS-style loop with the
  certificate machinery disabled: each invalid candidate is excluded
  exactly (identity embedding, no implementation widening). Isolates the
  value of isomorphism-generalized certificates.

The worst-case path latency derivation matches what the refinement
oracle concludes from the composed timing guarantees: across a path
``n_0, ..., n_k``, the reachable maximum of (consumption nominal time -
generation actual time) is

    sum_{m=1..k-1} latency(n_m)  +  sum_{m=1..k-2} output_jitter(n_m)

and the consumption jitter must additionally fit the system sink-jitter
bound. See ``tests/test_explore/test_baseline.py`` for the
equivalence checks against the refinement oracle.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.exceptions import ExplorationError
from repro.arch.architecture import CandidateArchitecture
from repro.arch.template import MappingTemplate
from repro.explore.encoding import build_candidate_milp
from repro.explore.engine import (
    ContrArcExplorer,
    ExplorationResult,
    ExplorationStatus,
    _charge_phases,
)
from repro.explore.stats import ExplorationStats, IterationRecord
from repro.expr.constraints import Formula, Implies, conjunction
from repro.expr.terms import LinExpr
from repro.graph.paths import all_source_sink_paths
from repro.obs.trace import Tracer
from repro.solver.feasibility import get_backend
from repro.solver.result import SolveStatus
from repro.spec.base import Specification
from repro.spec.flow import FlowSpec
from repro.spec.timing import TimingSpec


def lazy_nogood_explorer(
    mapping_template: MappingTemplate,
    specification: Specification,
    backend: str = "scipy",
    max_iterations: int = 2000,
    time_limit: Optional[float] = None,
) -> ContrArcExplorer:
    """The naive lazy loop: exclude each invalid candidate exactly."""
    return ContrArcExplorer(
        mapping_template,
        specification,
        backend=backend,
        use_isomorphism=False,
        use_decomposition=False,
        widen_implementations=False,
        max_iterations=max_iterations,
        time_limit=time_limit,
    )


def worst_case_path_latency(
    mapping_template: MappingTemplate,
    path: Sequence[str],
    timing: TimingSpec,
) -> LinExpr:
    """Worst-case end-to-end latency along a template path, as a linear
    expression over the attribute variables of the intermediate nodes."""
    template = mapping_template.template
    terms: List[LinExpr] = []
    jitter_constant = 0.0
    for position in range(1, len(path) - 1):
        component = template.component(path[position])
        if timing.latency_attribute in component.ctype.attributes:
            terms.append(
                mapping_template.attribute(
                    timing.latency_attribute, component.name
                ).to_expr()
            )
        else:
            jitter_constant += component.param(timing.latency_attribute, 0.0)
        if position <= len(path) - 3 and math.isfinite(component.output_jitter):
            jitter_constant += component.output_jitter
    return LinExpr.sum(terms) + jitter_constant


class MonolithicExplorer:
    """ArchEx-style one-shot MILP over the full problem."""

    def __init__(
        self,
        mapping_template: MappingTemplate,
        specification: Specification,
        backend: str = "scipy",
    ) -> None:
        self.mapping_template = mapping_template
        self.specification = specification
        self.backend = backend

    # -- system constraint compilation ------------------------------------------

    def system_constraints(self) -> List[Formula]:
        """Compile every system-level contract into template-wide formulas."""
        formulas: List[Formula] = []
        for spec in self.specification.global_specs:
            formulas.extend(self._global_viewpoint(spec))
        for spec in self.specification.path_specific_specs:
            formulas.extend(self._path_viewpoint(spec))
        return formulas

    def _global_viewpoint(self, spec) -> List[Formula]:
        if not isinstance(spec, FlowSpec):
            raise ExplorationError(
                f"the monolithic baseline cannot compile global viewpoint "
                f"{spec.name!r} ({type(spec).__name__}); only FlowSpec-style "
                "linear system contracts are supported"
            )
        system = spec.system_contract(self.mapping_template, None)
        return [Implies(system.assumptions, system.guarantees)]

    def _path_viewpoint(self, spec) -> List[Formula]:
        if not isinstance(spec, TimingSpec):
            raise ExplorationError(
                f"the monolithic baseline cannot compile path viewpoint "
                f"{spec.name!r} ({type(spec).__name__}); only TimingSpec is "
                "supported"
            )
        template = self.mapping_template.template
        graph = template.graph()
        sources = [c.name for c in template.source_components()]
        sinks = [c.name for c in template.sink_components()]
        formulas: List[Formula] = []
        for path in all_source_sink_paths(graph, sources, sinks):
            if len(path) < 2:
                continue
            edges = [
                self.mapping_template.edge(path[i], path[i + 1])
                for i in range(len(path) - 1)
            ]
            all_selected = LinExpr.sum(edges) >= len(edges)
            consequents: List[Formula] = []
            if math.isfinite(spec.max_latency):
                worst = worst_case_path_latency(self.mapping_template, path, spec)
                consequents.append(worst <= spec.max_latency)
            if math.isfinite(spec.sink_jitter):
                last_mid = template.component(path[-2])
                if (
                    math.isfinite(last_mid.output_jitter)
                    and last_mid.output_jitter > spec.sink_jitter
                ):
                    # The producer's jitter can never satisfy the sink
                    # bound: forbid completing this path at all.
                    formulas.append(LinExpr.sum(edges) <= len(edges) - 1)
                    continue
            if consequents:
                formulas.append(Implies(all_selected, conjunction(consequents)))
        return formulas

    # -- solve ---------------------------------------------------------------------

    def explore(self) -> ExplorationResult:
        """Build and solve the single monolithic MILP.

        Timed like ContrArc: a ``run`` span of a sink-less tracer, with
        the model build in a ``matrix_build`` phase and the solve in
        ``milp_solve``, so ``milp_time`` is build plus solve.
        """
        tracer = Tracer()
        stats = ExplorationStats()
        record = IterationRecord(1)
        with tracer.span("run", backend=self.backend) as run:
            with _charge_phases(record, tracer.metrics):
                with tracer.phase("matrix_build"):
                    model = build_candidate_milp(
                        self.mapping_template,
                        self.specification,
                        extra_constraints=self.system_constraints(),
                        name="monolithic",
                    )
                with tracer.phase("milp_solve"):
                    solve_result = get_backend(self.backend)(model)
            stats.milp_variables = model.num_variables
            stats.milp_constraints = model.num_constraints
            stats.record(record)
        stats.total_time = run.duration

        if solve_result.status is SolveStatus.INFEASIBLE:
            return ExplorationResult(ExplorationStatus.INFEASIBLE, [], stats, [])
        if solve_result.status is not SolveStatus.OPTIMAL:
            raise ExplorationError(
                f"monolithic MILP ended with status {solve_result.status.value}"
            )
        candidate = CandidateArchitecture.from_assignment(
            self.mapping_template, solve_result.assignment
        )
        record.candidate_cost = candidate.cost
        return ExplorationResult(ExplorationStatus.OPTIMAL, [candidate], stats, [])
