"""Algorithm 1 — compositional refinement verification.

Given a candidate, specialize every component contract to the selected
structure (edge/mapping variables pinned, attribute variables pinned to
the chosen implementations' values) and check, per viewpoint, that the
composition of the specialized contracts refines the system contract.

With decomposition enabled (the ContrArc default), path-specific
viewpoints are verified path by path — a failure yields a *small*
invalid sub-architecture, hence a more general certificate. With
decomposition disabled (Table II's "only subgraph isomorphism"
scenario), every viewpoint is checked once against the whole candidate;
path-specific system contracts are conjoined over all source-to-sink
paths of the candidate.

The verification of one candidate is organized as a *plan*: the ordered
list of (viewpoint, path) refinement checks, each carrying its fully
specialized (composed, system) contract pair. The checker walks the
plan lazily, or eagerly under dependency-sliced carrying (see
:mod:`repro.explore.incremental`); both report identical violations in
identical order.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.arch.architecture import CandidateArchitecture, SubArchitecture
from repro.arch.template import MappingTemplate
from repro.contracts.contract import Contract
from repro.contracts.operations import compose
from repro.contracts.refinement import RefinementResult, check_refinement
from repro.contracts.viewpoints import Viewpoint
from repro.expr.constraints import conjunction
from repro.expr.terms import Var
from repro.explore.incremental import (
    CACHE_HIT,
    CARRIED,
    VERIFIED,
    DependencySlicer,
    IterationDelta,
    PlanEntry,
    index_by_name,
    new_counts,
)
from repro.graph.paths import all_source_sink_paths
from repro.obs.trace import Tracer
from repro.spec.base import Specification, ViewpointSpec


class Violation:
    """A refinement failure: which fragment broke which viewpoint."""

    __slots__ = ("sub_architecture", "viewpoint", "refinement", "path")

    def __init__(
        self,
        sub_architecture: SubArchitecture,
        viewpoint: Viewpoint,
        refinement: RefinementResult,
        path: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.sub_architecture = sub_architecture
        self.viewpoint = viewpoint
        self.refinement = refinement
        #: The source-to-sink path whose check failed, or ``None`` for a
        #: whole-candidate (global or undecomposed) check.
        self.path = path

    def __repr__(self) -> str:
        return (
            f"Violation(viewpoint={self.viewpoint.name!r}, "
            f"nodes={self.sub_architecture.nodes})"
        )


class RefinementCheck:
    """One (viewpoint, path) refinement query of one candidate's plan."""

    __slots__ = ("spec", "path", "composed", "system")

    def __init__(
        self,
        spec: ViewpointSpec,
        path: Optional[Tuple[str, ...]],
        composed: Contract,
        system: Contract,
    ) -> None:
        self.spec = spec
        #: ``None`` means a whole-candidate check.
        self.path = path
        #: Composition of the specialized component contracts.
        self.composed = composed
        #: Specialized system contract the composition must refine.
        self.system = system


class RefinementChecker:
    """Checks candidates against system-level contracts."""

    def __init__(
        self,
        mapping_template: MappingTemplate,
        specification: Specification,
        decompose: bool = True,
        check_assumptions: bool = False,
        oracle=None,
        incremental: bool = False,
    ) -> None:
        self.mapping_template = mapping_template
        self.specification = specification
        self.decompose = decompose
        #: Optional memoizing oracle (see
        #: :class:`repro.runtime.oracle.OracleCache`); forwarded to every
        #: refinement query so repeated checks across iterations, jobs
        #: and runs are served from cache.
        self.oracle = oracle
        #: The assumptions half of refinement is skipped by default: the
        #: candidate MILP already enforces every component assumption, so
        #: only guarantee containment is informative here (see DESIGN.md).
        self.check_assumptions = check_assumptions
        #: The :class:`repro.obs.trace.Tracer` (the engine binds its
        #: run's): every plan entry emits a ``refinement_check`` span
        #: keyed by its plan index.
        self.tracer = Tracer()
        # Contract generation is pure in (spec, component/path); cache the
        # unsubstituted contracts across iterations.
        self._component_cache: Dict[tuple, Contract] = {}
        self._system_cache: Dict[tuple, Contract] = {}
        #: Dependency-sliced carrying (see repro.explore.incremental):
        #: with ``incremental=True`` the checker fingerprints every plan
        #: entry and skips pairs whose dependency slice is unchanged
        #: from the previous candidate, carrying the verdict forward.
        self.delta: Optional[IterationDelta] = (
            IterationDelta() if incremental else None
        )
        self.slicer: Optional[DependencySlicer] = (
            DependencySlicer(self) if incremental else None
        )
        #: Per-entry provenance tally of the most recent candidate
        #: (``None`` outside incremental mode): ``{"checks": n,
        #: "verified": ..., "cache_hit": ..., "carried": ...}``.
        self.last_provenance: Optional[Dict[str, int]] = None

    # -- public API ------------------------------------------------------------

    def check(self, candidate: CandidateArchitecture) -> Optional[Violation]:
        """Return the first violation, or None if all refinements hold."""
        return next(self._iter_violations(candidate), None)

    def check_all(self, candidate: CandidateArchitecture) -> List[Violation]:
        """Every violation of the candidate, in :meth:`check` order.

        The multi-cut variant of the exploration loop turns all of them
        into certificates at once instead of re-solving the MILP to
        rediscover the remaining failures one per iteration. An empty
        list means the candidate refines every system contract.
        """
        return list(self._iter_violations(candidate))

    def _iter_violations(
        self, candidate: CandidateArchitecture
    ) -> "Iterator[Violation]":
        if self.delta is not None:
            yield from self._iter_violations_incremental(candidate)
            return
        self.last_provenance = None
        for index, check in enumerate(self.candidate_plan(candidate)):
            hits_before = self.oracle.stats.hits if self.oracle else 0
            with self.tracer.span(
                "refinement_check", seq=index, **self._span_attrs(check)
            ) as span:
                result = self._check_entry(check)
                span.attrs["holds"] = bool(result)
                if self.oracle is not None:
                    span.attrs["cache_hit"] = self.oracle.stats.hits > hits_before
            if not result:
                yield self.violation_for(candidate, check, result)

    def _iter_violations_incremental(
        self, candidate: CandidateArchitecture
    ) -> "Iterator[Violation]":
        """The dependency-sliced walk: carry unchanged pairs forward.

        Evaluated eagerly (every entry decided before the first
        violation is yielded): the delta must learn the fingerprint of
        *every* pair to carry it into the next candidate, so a lazy
        short-circuit would forfeit exactly the reuse this mode exists
        for. Verdicts, violation order and cuts are identical to the
        lazy walk either way.
        """
        assignment, paths, entries = self.plan_outline(candidate)
        values = index_by_name(assignment)
        memo: Dict[tuple, Contract] = {}
        committed: Dict[tuple, tuple] = {}
        counts = new_counts(len(entries))
        failed: List[Tuple[PlanEntry, RefinementResult]] = []
        for index, entry in enumerate(entries):
            fingerprint = self.slicer.fingerprint(entry, values, paths)
            prior = self.delta.match(entry.pair_id, fingerprint)
            with self.tracer.span(
                "refinement_check", seq=index, **self._span_attrs(entry)
            ) as span:
                if prior is not None:
                    result = prior
                    provenance = CARRIED
                else:
                    check = self.materialize(entry, assignment, paths, memo)
                    before = self._oracle_progress()
                    result = self._check_entry(check)
                    provenance = (
                        CACHE_HIT if self._all_hits_since(before) else VERIFIED
                    )
                counts[provenance] += 1
                span.attrs.update(
                    holds=bool(result),
                    provenance=provenance,
                    cache_hit=provenance == CACHE_HIT,
                )
            committed[entry.pair_id] = (fingerprint, result)
            if not result:
                failed.append((entry, result))
        self.delta.commit(committed)
        self.last_provenance = counts
        for entry, result in failed:
            yield self.violation_for_entry(candidate, entry, result)

    def _check_entry(self, check: "RefinementCheck") -> RefinementResult:
        """Decide one materialized plan entry through the oracle seam."""
        return check_refinement(
            check.composed,
            check.system,
            check_assumptions=self.check_assumptions,
            saturate_concrete=False,
            oracle=self.oracle,
        )

    def _oracle_progress(self) -> Tuple[int, int]:
        if self.oracle is None:
            return (0, 0)
        stats = self.oracle.stats
        return (stats.misses, stats.uncacheable)

    def _all_hits_since(self, before: Tuple[int, int]) -> bool:
        """True when every query since ``before`` was served from cache."""
        return self.oracle is not None and self._oracle_progress() == before

    @staticmethod
    def _span_attrs(entry) -> Dict[str, object]:
        """The span attributes identifying one plan entry (a
        :class:`RefinementCheck` or an outline :class:`PlanEntry`)."""
        return {
            "viewpoint": entry.spec.name,
            "path": "->".join(entry.path) if entry.path else None,
        }

    # -- the verification plan ---------------------------------------------------

    def plan_outline(
        self, candidate: CandidateArchitecture
    ) -> Tuple[Dict[Var, float], List[Sequence[str]], List[PlanEntry]]:
        """The candidate's checks as cheap outline entries, in plan order.

        Canonical order is the serial evaluation order: path-specific
        viewpoints (spec by spec, path by path) before global viewpoints
        under decomposition; every viewpoint once, whole-candidate,
        without. No contract is substituted or composed here — entries
        record only which components each check depends on, so the
        dependency slicer can decide entry reuse before any formula
        algebra runs.
        """
        assignment = self._candidate_assignment(candidate)
        paths = self._candidate_paths(candidate)
        instantiated = tuple(sorted(candidate.selected_impls))
        entries: List[PlanEntry] = []
        if self.decompose:
            for spec in self.specification.path_specific_specs:
                for path in paths:
                    entries.append(PlanEntry(spec, tuple(path), tuple(path)))
            for spec in self.specification.global_specs:
                if instantiated:
                    entries.append(
                        PlanEntry(spec, None, instantiated, whole=True)
                    )
            return assignment, paths, entries
        # No decomposition: every viewpoint against the whole candidate.
        for spec in self.specification.viewpoint_specs:
            if instantiated:
                entries.append(PlanEntry(spec, None, instantiated, whole=True))
        return assignment, paths, entries

    def materialize(
        self,
        entry: PlanEntry,
        assignment: Dict[Var, float],
        paths: List[Sequence[str]],
        memo: Dict[tuple, Contract],
    ) -> RefinementCheck:
        """Substitute and compose one outline entry into a RefinementCheck.

        ``memo`` holds per-candidate substituted component contracts
        keyed by (viewpoint, component) — the assignment is fixed for
        the whole candidate, so a component recurring on many paths
        reuses the specialized contract. Share one memo across every
        entry of a candidate.
        """

        def component(spec: ViewpointSpec, name: str) -> Contract:
            key = (spec.name, name)
            if key not in memo:
                memo[key] = self._component_contract(spec, name).substitute(
                    assignment
                )
            return memo[key]

        spec = entry.spec
        if entry.whole:
            composed = compose(
                [component(spec, name) for name in entry.components],
                name=f"C_c^{spec.name}",
                saturate=False,
            )
            system = self._system_contract_whole(spec, paths).substitute(
                assignment
            )
            return RefinementCheck(spec, None, composed, system)
        composed = compose(
            [component(spec, name) for name in entry.components],
            name=f"C_p^{spec.name}",
            saturate=False,
        )
        system = self._system_contract_for_path(spec, entry.path).substitute(
            assignment
        )
        return RefinementCheck(spec, entry.path, composed, system)

    def candidate_plan(
        self, candidate: CandidateArchitecture
    ) -> List[RefinementCheck]:
        """The candidate's refinement checks, fully materialized."""
        assignment, paths, entries = self.plan_outline(candidate)
        memo: Dict[tuple, Contract] = {}
        return [
            self.materialize(entry, assignment, paths, memo)
            for entry in entries
        ]

    def violation_for_entry(
        self,
        candidate: CandidateArchitecture,
        entry: PlanEntry,
        result: RefinementResult,
    ) -> Violation:
        """Materialize the Violation for one failed outline entry."""
        if entry.path is not None:
            return Violation(
                candidate.sub_architecture(list(entry.path)),
                entry.spec.viewpoint,
                result,
                path=entry.path,
            )
        return Violation(
            candidate.whole_architecture(), entry.spec.viewpoint, result
        )

    def violation_for(
        self,
        candidate: CandidateArchitecture,
        check: RefinementCheck,
        result: RefinementResult,
    ) -> Violation:
        """Materialize the Violation for one failed plan entry."""
        if check.path is not None:
            return Violation(
                candidate.sub_architecture(list(check.path)),
                check.spec.viewpoint,
                result,
                path=check.path,
            )
        return Violation(
            candidate.whole_architecture(), check.spec.viewpoint, result
        )

    # -- helpers -----------------------------------------------------------------

    def _candidate_assignment(
        self, candidate: CandidateArchitecture
    ) -> Dict[Var, float]:
        assignment = candidate.structural_assignment()
        assignment.update(candidate.attribute_assignment())
        return assignment

    def _candidate_paths(self, candidate: CandidateArchitecture) -> List[Sequence[str]]:
        graph = candidate.graph()
        template = self.mapping_template.template
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

    def _component_contract(
        self, spec: ViewpointSpec, component_name: str
    ) -> Contract:
        """The *unsubstituted* component contract (cached across runs)."""
        key = (spec.name, component_name)
        if key not in self._component_cache:
            component = self.mapping_template.template.component(component_name)
            self._component_cache[key] = spec.component_contract(
                self.mapping_template, component
            )
        return self._component_cache[key]

    def _system_contract_for_path(
        self, spec: ViewpointSpec, path: Sequence[str]
    ) -> Contract:
        key = (spec.name, tuple(path))
        if key not in self._system_cache:
            self._system_cache[key] = spec.system_contract(
                self.mapping_template, path
            )
        return self._system_cache[key]

    def _system_contract_whole(
        self, spec: ViewpointSpec, paths: List[Sequence[str]]
    ) -> Contract:
        """System contract for whole-candidate checking.

        Global viewpoints have one; path-specific viewpoints get the
        conjunction (same-viewpoint merge: A and G both conjoined) of
        their per-path contracts.
        """
        if not spec.viewpoint.path_specific:
            key = (spec.name, None)
            if key not in self._system_cache:
                self._system_cache[key] = spec.system_contract(
                    self.mapping_template, None
                )
            return self._system_cache[key]
        per_path = [self._system_contract_for_path(spec, path) for path in paths]
        if not per_path:
            from repro.expr.constraints import TRUE

            return Contract(f"C_s^{spec.name}[all-paths]", TRUE, TRUE)
        assumptions = conjunction(c.assumptions for c in per_path)
        guarantees = conjunction(c.guarantees for c in per_path)
        return Contract(f"C_s^{spec.name}[all-paths]", assumptions, guarantees)
