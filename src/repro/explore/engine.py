"""The ContrArc exploration loop (Fig. 1 / Problems 2-4).

Iterate:

1. solve the Problem-2 MILP (component contracts + accumulated cuts) for
   the cheapest candidate;
2. run Algorithm 1 (refinement verification) on the candidate;
3. if a viewpoint fails, run Algorithm 2 to turn every invalid
   fragment into isomorphism-generalized cuts and go to 1 (at least one
   new cut must exclude the candidate, or the run raises
   :class:`~repro.exceptions.ExplorationError` rather than stall);
4. otherwise the candidate is the optimum of Problem 1.

``explore(k)`` goes on past the optimum: each accepted candidate is
excluded by its exact no-good cut
(:func:`~repro.explore.encoding.exclude_candidate_cut`) and the loop
continues, so the next accepted candidate is the next-cheapest valid
architecture. Certificate cuts keep accumulating across acceptances,
so the search never revisits invalid regions.

The two scalability levers of the paper map to constructor flags:
``use_isomorphism`` (certificate generalization over embeddings +
implementation widening) and ``use_decomposition`` (path-by-path
refinement). Table II's three scenarios are
``(True, False)``, ``(False, True)`` and ``(True, True)``. Every run
reuses work across iterations: one persistent HiGHS session solves
Problem 2 (:mod:`repro.solver.session`) and the checker carries
unchanged refinement verdicts forward by dependency slicing
(:mod:`repro.explore.incremental`). Every violation Algorithm 1 finds
in a candidate becomes certificates in the same iteration.

Cuts enter the MILP lazily (:class:`repro.explore.cut_pool.CutPool`).
Of the cuts Algorithm 2 emits in an iteration, only those the current
candidate violates are encoded; the rest wait in a run-scoped pool.
Every solved candidate is checked against the pool. The sub-model
optimum is a lower bound on the full model's, so a candidate that
satisfies every pooled cut is optimal for the full cut set and goes on
to refinement. A candidate that violates a pooled cut shows the pool
binds at the cost frontier (iso images of a fragment are same-cost
alternatives on EPN): the whole pool is encoded, the MILP re-solved in
the same iteration, and from then on every new cut is encoded on
emission. Rows are only ever appended, so the session extends in
place either way.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from typing import Any, Dict, Hashable, Iterator, List, Optional, Set

from repro.exceptions import ExplorationError, NoFeasibleArchitectureError
from repro.arch.architecture import CandidateArchitecture
from repro.arch.template import MappingTemplate
from repro.explore.certificates import generate_cuts
from repro.explore.cut_pool import CutPool
from repro.explore.encoding import Cut, build_candidate_milp, exclude_candidate_cut
from repro.explore.refinement_check import RefinementChecker, Violation
from repro.explore.stats import ExplorationStats, IterationRecord
from repro.graph.matchers import EmbeddingCache
from repro.obs.metrics import Metrics
from repro.obs.trace import Tracer
# Not called here (cuts are deduplicated on their row keys), but
# benchmarks/harness/layers.py patches this module's ``formula_key``.
from repro.runtime.keys import formula_key  # noqa: F401
from repro.solver.encoder import FormulaEncoder
from repro.solver.result import SolveStatus
from repro.solver.session import IncrementalSession
from repro.spec.base import Specification

#: The phases each :class:`IterationRecord` time field sums
#: (``embedding`` runs inside ``certificate_build``, so it is not added
#: again).
_RECORD_PHASES = {
    "milp_time": ("matrix_build", "milp_solve"),
    "refinement_time": ("refinement",),
    "certificate_time": ("certificate_build",),
}


@contextmanager
def _charge_phases(record: IterationRecord, metrics: Metrics) -> Iterator[None]:
    """Set ``record``'s times to the phase seconds spent inside the block."""

    def seconds(phases):
        return sum(metrics.total(f"{phase}_seconds") for phase in phases)

    before = {field: seconds(phases) for field, phases in _RECORD_PHASES.items()}
    try:
        yield
    finally:
        for field, phases in _RECORD_PHASES.items():
            setattr(record, field, seconds(phases) - before[field])


def _phase_profile(metrics: Metrics, before: Dict[str, Any]) -> Dict[str, Any]:
    """One run's share of ``metrics``, given its snapshot at run start:
    per-phase seconds and span counts plus the event counters."""
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for key, histogram in metrics.histograms.items():
        prior = before["histograms"].get(key, {"sum": 0.0, "count": 0})
        if histogram.count > prior["count"]:
            name = key.removesuffix("_seconds")
            totals[name] = histogram.total - prior["sum"]
            counts[name] = histogram.count - prior["count"]
    counters = {
        name: value - before["counters"].get(name, 0)
        for name, value in metrics.counters.items()
    }
    return {"totals": totals, "counts": counts, "counters": counters}


class ExplorationStatus(enum.Enum):
    """Terminal state of an exploration run."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration_limit"
    TIME_LIMIT = "time_limit"


class ExplorationResult:
    """Outcome of one exploration run.

    ``architectures`` lists the accepted architectures in non-decreasing
    cost order (at most ``k`` of :meth:`ContrArcExplorer.explore`);
    ``architecture`` is the first of them, the optimum.
    """

    __slots__ = ("status", "architectures", "stats", "cuts", "last_violation")

    def __init__(
        self,
        status: ExplorationStatus,
        architectures: List[CandidateArchitecture],
        stats: ExplorationStats,
        cuts: List[Cut],
        last_violation: Optional[Violation] = None,
    ) -> None:
        self.status = status
        self.architectures = architectures
        self.stats = stats
        self.cuts = cuts
        self.last_violation = last_violation

    @property
    def architecture(self) -> Optional[CandidateArchitecture]:
        return self.architectures[0] if self.architectures else None

    @property
    def is_optimal(self) -> bool:
        return self.status is ExplorationStatus.OPTIMAL

    @property
    def cost(self) -> Optional[float]:
        return self.architecture.cost if self.architecture else None

    def __repr__(self) -> str:
        return (
            f"ExplorationResult({self.status.value}, cost={self.cost}, "
            f"iterations={self.stats.num_iterations})"
        )


class ContrArcExplorer:
    """The complete methodology (both levers on by default)."""

    def __init__(
        self,
        mapping_template: MappingTemplate,
        specification: Specification,
        use_isomorphism: bool = True,
        use_decomposition: bool = True,
        widen_implementations: bool = True,
        max_iterations: int = 1000,
        time_limit: Optional[float] = None,
        oracle=None,
        tracer=None,
    ) -> None:
        #: Optional memoizing oracle (see
        #: :class:`repro.runtime.oracle.OracleCache`). Serves repeated
        #: refinement queries and candidate-MILP solves from cache —
        #: the warm-start seam of the batch runtime.
        self.oracle = oracle
        #: Optional :class:`repro.obs.trace.Tracer`. Every explore()
        #: call records a ``run -> iteration -> phase -> query`` span
        #: tree; a bound tracer also sends it, and a metrics snapshot,
        #: to its sinks. ``None`` (the default) runs each call under a
        #: fresh sink-less tracer.
        self.tracer = tracer
        if max_iterations < 1:
            raise ExplorationError("max_iterations must be at least 1")
        #: Wall-clock budget in seconds; exploration stops with
        #: TIME_LIMIT when exceeded. It is checked between iterations.
        self.time_limit = time_limit
        self.mapping_template = mapping_template
        self.specification = specification
        self.use_isomorphism = use_isomorphism
        self.use_decomposition = use_decomposition
        self.widen_implementations = widen_implementations
        self.max_iterations = max_iterations
        if oracle is None:
            # No user oracle: still memoize refinement sat-queries within
            # this explorer's lifetime — identical (path, spec) checks
            # recur across iterations whenever a cut leaves part of the
            # candidate unchanged. Solver-side wrapping stays off: the
            # candidate MILP grows every iteration, so its cache key
            # never repeats within a run.
            from repro.runtime.oracle import OracleCache

            checker_oracle = OracleCache()
        else:
            checker_oracle = oracle
        self.checker = RefinementChecker(
            mapping_template,
            specification,
            decompose=use_decomposition,
            oracle=checker_oracle,
            incremental=True,
        )

    # -- main loop -------------------------------------------------------------

    def explore(self, k: int = 1) -> ExplorationResult:
        """Run the select/verify/prune loop to the ``k`` cheapest valid
        architectures (the optimum alone by default).

        The status is ``OPTIMAL`` once one architecture is accepted;
        fewer than ``k`` means the space ran out or a limit was hit.

        The run is timed by its phase spans only: ``self.tracer``, or a
        fresh sink-less :class:`~repro.obs.trace.Tracer` when none is
        bound. Per-iteration times, ``stats.total_time`` and
        ``stats.phase_profile`` (per-phase seconds and span counts, plus
        the event counters) are all read back from those spans.
        """
        if k < 1:
            raise ExplorationError("k must be at least 1")
        tracer = self.tracer or Tracer()
        self.checker.tracer = tracer
        metrics = tracer.metrics
        metrics_before = metrics.snapshot()
        oracle_before = self.checker.oracle.stats.to_dict()
        stats = ExplorationStats()
        cuts: List[Cut] = []
        seen_cut_keys: Set[Hashable] = set()
        embedding_cache = EmbeddingCache()
        # Emitted cuts kept out of the model until a candidate violates
        # one (see the module docstring).
        pool = CutPool(self.mapping_template)
        eager = False
        status = ExplorationStatus.ITERATION_LIMIT
        architectures: List[CandidateArchitecture] = []
        last_violation: Optional[Violation] = None
        with tracer.span(
            "run",
            use_isomorphism=self.use_isomorphism,
            use_decomposition=self.use_decomposition,
        ) as run:
            # The contract encoding never changes across iterations; build
            # it once and keep appending certificate constraints to it.
            model = build_candidate_milp(self.mapping_template, self.specification)
            cut_encoder = FormulaEncoder(model, prefix="cut")
            # The session times its own matrix_build / milp_solve split.
            session = IncrementalSession(model)
            session.tracer = tracer
            solve = session.as_solver()
            if self.oracle is not None:
                solve = self.oracle.wrap_solver("scipy", solve)
            for index in range(1, self.max_iterations + 1):
                if (
                    self.time_limit is not None
                    and tracer.now() - run.start > self.time_limit
                ):
                    status = ExplorationStatus.TIME_LIMIT
                    break
                record = IterationRecord(index)
                charge = _charge_phases(record, metrics)
                with tracer.span("iteration", index=index) as span, charge:
                    while True:
                        solve_result = solve(model)
                        if index == 1:
                            stats.milp_variables = model.num_variables
                            stats.milp_constraints = model.num_constraints
                        if solve_result.status is not SolveStatus.OPTIMAL:
                            break
                        candidate = CandidateArchitecture.from_assignment(
                            self.mapping_template, solve_result.assignment
                        )
                        if not pool:
                            break
                        # The sub-model optimum is a lower bound on the full
                        # model; if it satisfies every pooled cut it is the
                        # full model's optimum too.
                        with tracer.phase("certificate_build"):
                            if not pool.violated_by(candidate):
                                break
                            # Pooled cuts bind at the cost frontier: flush
                            # them, re-solve, and activate every later cut
                            # on emission.
                            for cut in pool.drain():
                                cut_encoder.enforce(cut.formula)
                            eager = True
                    # Infeasible with a subset of the cuts is infeasible
                    # with all of them.
                    if solve_result.status is SolveStatus.INFEASIBLE:
                        stats.record(record)
                        status = ExplorationStatus.INFEASIBLE
                        break
                    if solve_result.status is not SolveStatus.OPTIMAL:
                        raise ExplorationError(
                            f"candidate MILP ended with status "
                            f"{solve_result.status.value}: "
                            f"{solve_result.message}"
                        )
                    record.candidate_cost = candidate.cost
                    span.attrs["candidate_cost"] = candidate.cost

                    with tracer.phase("refinement"):
                        violations = self.checker.check_all(candidate)
                    provenance = self.checker.last_provenance
                    if provenance is not None:
                        record.verification = dict(provenance)
                        span.attrs["carried"] = provenance["carried"]
                        for key, value in provenance.items():
                            metrics.counter(f"verify_{key}", value)

                    if not violations:
                        architectures.append(candidate)
                        last_violation = None
                        if len(architectures) == k:
                            stats.record(record)
                            break
                        # Exclude exactly this architecture; the next
                        # accepted candidate is the next-cheapest one.
                        cut = exclude_candidate_cut(self.mapping_template, candidate)
                        cut_encoder.enforce(cut.formula)
                        record.cuts_added = 1
                        span.attrs["cuts_added"] = 1
                        cuts.append(cut)
                        stats.record(record)
                        continue

                    last_violation = violations[0]
                    record.violated_viewpoint = violations[0].viewpoint.name
                    record.violations = [
                        {
                            "viewpoint": violation.viewpoint.name,
                            "path": list(violation.path) if violation.path else None,
                        }
                        for violation in violations
                    ]
                    span.attrs["violated_viewpoint"] = record.violated_viewpoint
                    span.attrs["violations"] = len(violations)
                    with tracer.phase("certificate_build"):
                        added: List[Cut] = []
                        for violation in violations:
                            for cut in generate_cuts(
                                self.mapping_template,
                                candidate,
                                violation,
                                use_isomorphism=self.use_isomorphism,
                                widen=self.widen_implementations,
                                embedding_cache=embedding_cache,
                                tracer=tracer,
                            ):
                                # Distinct (viewpoint, path) violations
                                # often certify overlapping fragments;
                                # keep one cut per distinct constraint.
                                if cut.key in seen_cut_keys:
                                    continue
                                seen_cut_keys.add(cut.key)
                                added.append(cut)
                        # Activate the cuts this candidate violates and
                        # pool the rest.
                        active = added if eager else pool.offer(added, candidate)
                        # Progress: some new cut (the identity embedding's)
                        # must exclude the candidate, or the next solve
                        # returns it again.
                        assignment = candidate.structural_assignment()
                        if all(cut.formula.evaluate(assignment) for cut in active):
                            viewpoints = dict.fromkeys(
                                violation.viewpoint.name for violation in violations
                            )
                            raise ExplorationError(
                                f"iteration {index}: no new certificate cut "
                                f"excludes the candidate violating "
                                f"{', '.join(viewpoints)}"
                            )
                        for cut in active:
                            cut_encoder.enforce(cut.formula)
                    record.cuts_added = len(added)
                    span.attrs["cuts_added"] = len(added)
                    cuts.extend(added)
                    stats.record(record)

            if architectures:
                status = ExplorationStatus.OPTIMAL
            stats.final_milp_variables = model.num_variables
            stats.final_milp_constraints = model.num_constraints
            oracle_after = self.checker.oracle.stats.to_dict()
            delta = {
                key: oracle_after.get(key, 0) - oracle_before.get(key, 0)
                for key in ("hits", "misses", "stores", "uncacheable")
            }
            lookups = delta["hits"] + delta["misses"]
            delta["hit_rate"] = delta["hits"] / lookups if lookups else 0.0
            stats.oracle_cache = delta
            for key in ("hits", "misses", "stores"):
                metrics.counter(f"oracle_{key}", delta[key])
            metrics.counter("embedding_cache_hits", embedding_cache.hits)
            metrics.counter("embedding_cache_misses", embedding_cache.misses)
            run.attrs.update(
                status=status.value,
                cost=architectures[0].cost if architectures else None,
                iterations=stats.num_iterations,
                cuts=stats.total_cuts,
            )
        stats.total_time = run.duration
        stats.phase_profile = _phase_profile(metrics, metrics_before)
        return ExplorationResult(status, architectures, stats, cuts, last_violation)

    def explore_or_raise(self) -> ExplorationResult:
        """Like :meth:`explore` but raises when no architecture exists."""
        result = self.explore()
        if result.status is ExplorationStatus.INFEASIBLE:
            raise NoFeasibleArchitectureError(
                "the design space contains no architecture satisfying all "
                "system-level contracts"
            )
        if result.status is ExplorationStatus.ITERATION_LIMIT:
            raise ExplorationError(
                f"exploration did not converge within "
                f"{self.max_iterations} iterations"
            )
        if result.status is ExplorationStatus.TIME_LIMIT:
            raise ExplorationError(
                f"exploration exceeded the {self.time_limit:g}s time budget"
            )
        return result
