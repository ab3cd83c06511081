"""Tests for top-k architecture enumeration (``ContrArcExplorer.explore(k)``)."""

import pytest

from repro.casestudies import epn
from repro.exceptions import ExplorationError
from repro.explore.encoding import exclude_candidate_cut
from repro.explore.engine import ContrArcExplorer, ExplorationStatus
from repro.explore.refinement_check import RefinementChecker
from repro.obs.trace import Tracer


def _costs(result):
    return [arch.cost for arch in result.architectures]


class TestExcludeCut:
    def test_cut_kills_exactly_that_candidate(self, problem):
        mt, spec = problem
        result = ContrArcExplorer(mt, spec, max_iterations=100).explore()
        candidate = result.architecture
        cut = exclude_candidate_cut(mt, candidate)
        assert not cut.formula.evaluate(candidate.structural_assignment())


class TestTopK:
    def test_k_must_be_positive(self, problem):
        mt, spec = problem
        with pytest.raises(ExplorationError):
            ContrArcExplorer(mt, spec).explore(k=0)

    def test_first_solution_is_the_optimum(self, problem):
        mt, spec = problem
        optimum = ContrArcExplorer(mt, spec, max_iterations=100).explore()
        top = ContrArcExplorer(mt, spec, max_iterations=100).explore(k=1)
        assert len(top.architectures) == 1
        assert top.architecture is top.architectures[0]
        assert top.cost == pytest.approx(optimum.cost)
        ranked = ContrArcExplorer(mt, spec, max_iterations=100).explore(k=4)
        assert ranked.cost == pytest.approx(optimum.cost)

    def test_costs_non_decreasing(self, problem):
        mt, spec = problem
        top = ContrArcExplorer(mt, spec).explore(k=4)
        assert top.status is ExplorationStatus.OPTIMAL
        # The space holds only two valid designs; these are the costs
        # the standalone top-k loop this replaces returned.
        assert _costs(top) == [7.0, 9.0]

    def test_solutions_distinct(self, problem):
        mt, spec = problem
        top = ContrArcExplorer(mt, spec).explore(k=4).architectures
        signatures = {
            (
                tuple(sorted(arch.selected_edges)),
                tuple(sorted((k, v.name) for k, v in arch.selected_impls.items())),
            )
            for arch in top
        }
        assert len(signatures) == len(top)

    def test_all_solutions_pass_refinement(self, problem):
        mt, spec = problem
        checker = RefinementChecker(mt, spec)
        top = ContrArcExplorer(mt, spec).explore(k=3).architectures
        assert top
        for arch in top:
            assert checker.check(arch) is None

    def test_exhausts_small_spaces(self, loose_problem):
        # With symmetry breaking the mini template admits exactly three
        # valid canonical designs (one per worker implementation).
        mt, spec = loose_problem
        top = ContrArcExplorer(mt, spec).explore(k=50)
        assert top.status is ExplorationStatus.OPTIMAL
        assert _costs(top) == [5.0, 7.0, 9.0]

    def test_stats_populated(self, problem):
        mt, spec = problem
        result = ContrArcExplorer(mt, spec).explore(k=2)
        stats = result.stats
        assert stats.num_iterations >= 2
        assert stats.milp_variables > 0
        # The accepted optimum's no-good is one of the run's cuts.
        assert stats.total_cuts == len(result.cuts) > 0
        assert stats.final_milp_constraints > stats.milp_constraints

    def test_epn_ranked_costs(self):
        mt, spec = epn.build_problem(1, 0, 0)
        top = ContrArcExplorer(mt, spec).explore(k=3)
        assert _costs(top) == [25.0, 25.0, 25.5]

    def test_limit_after_first_acceptance_stays_optimal(self, loose_problem):
        mt, spec = loose_problem
        tracer = _JumpClock()
        explorer = ContrArcExplorer(mt, spec, time_limit=60.0, tracer=tracer)
        check_all = explorer.checker.check_all

        def slow_check(candidate):
            # Each refinement "takes" an hour on the tracer's clock.
            tracer.offset += 3600.0
            return check_all(candidate)

        explorer.checker.check_all = slow_check
        result = explorer.explore(k=3)
        assert result.status is ExplorationStatus.OPTIMAL
        assert _costs(result) == [5.0]
        assert result.stats.num_iterations == 1

    def test_iteration_limit_after_first_acceptance_stays_optimal(
        self, loose_problem
    ):
        mt, spec = loose_problem
        result = ContrArcExplorer(mt, spec, max_iterations=1).explore(k=3)
        assert result.status is ExplorationStatus.OPTIMAL
        assert _costs(result) == [5.0]

    def test_infeasible_space_has_no_architectures(self, impossible_problem):
        mt, spec = impossible_problem
        result = ContrArcExplorer(mt, spec, max_iterations=100).explore(k=3)
        assert result.status is ExplorationStatus.INFEASIBLE
        assert result.architectures == []
        assert result.architecture is None


class _JumpClock(Tracer):
    """A tracer whose clock can be pushed forward by ``offset`` seconds."""

    offset = 0.0

    def now(self) -> float:
        return super().now() + self.offset
