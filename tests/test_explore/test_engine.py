"""Tests for the ContrArc exploration loop."""

import numpy as np
import pytest

from repro.casestudies import epn, rpl, wsn
from repro.exceptions import (
    ExplorationError,
    NoFeasibleArchitectureError,
)
from repro.explore.encoding import Cut
from repro.explore.engine import ContrArcExplorer, ExplorationStatus
from repro.runtime.job import SCENARIOS


class TestOptimum:
    def test_tight_deadline_forces_fast_worker(self, problem):
        mt, spec = problem
        result = ContrArcExplorer(mt, spec, max_iterations=100).explore()
        assert result.status is ExplorationStatus.OPTIMAL
        arch = result.architecture
        worker = next(
            n for n in arch.selected_impls if n.startswith("w")
        )
        # Deadline 7 requires latency <= 7: w_mid (6) fits, w_slow (9) not.
        assert arch.implementation_of(worker).name == "w_mid"
        assert result.cost == pytest.approx(1 + 5 + 1)

    def test_loose_deadline_takes_cheapest(self, loose_problem):
        mt, spec = loose_problem
        result = ContrArcExplorer(mt, spec, max_iterations=100).explore()
        assert result.status is ExplorationStatus.OPTIMAL
        assert result.cost == pytest.approx(1 + 3 + 1)
        assert result.stats.num_iterations == 1  # first candidate accepted

    def test_iterations_prune_slow_worker(self, problem):
        mt, spec = problem
        result = ContrArcExplorer(mt, spec, max_iterations=100).explore()
        # At least one iteration rejected the cheaper-but-slow worker.
        assert result.stats.num_iterations >= 2
        assert result.stats.total_cuts >= 1
        rejected = [
            r for r in result.stats.iterations if r.violated_viewpoint
        ]
        assert all(r.violated_viewpoint == "timing" for r in rejected)

    def test_all_four_mode_combinations_agree_on_cost(self, problem):
        mt, spec = problem
        costs = set()
        for iso in (True, False):
            for decomp in (True, False):
                result = ContrArcExplorer(
                    mt,
                    spec,
                    use_isomorphism=iso,
                    use_decomposition=decomp,
                    widen_implementations=iso,
                    max_iterations=300,
                ).explore()
                assert result.status is ExplorationStatus.OPTIMAL, (iso, decomp)
                costs.add(round(result.cost, 6))
        assert len(costs) == 1

    def test_isomorphism_needs_fewer_iterations(self, problem):
        mt, spec = problem
        with_iso = ContrArcExplorer(
            mt, spec, use_isomorphism=True, max_iterations=300
        ).explore()
        without = ContrArcExplorer(
            mt,
            spec,
            use_isomorphism=False,
            widen_implementations=False,
            max_iterations=300,
        ).explore()
        assert with_iso.stats.num_iterations <= without.stats.num_iterations

    def test_candidates_explored_in_cost_order(self, problem):
        mt, spec = problem
        result = ContrArcExplorer(mt, spec, max_iterations=100).explore()
        costs = [
            r.candidate_cost
            for r in result.stats.iterations
            if r.candidate_cost is not None
        ]
        assert costs == sorted(costs)


class TestEdgeOutcomes:
    def test_infeasible(self, impossible_problem):
        mt, spec = impossible_problem
        result = ContrArcExplorer(mt, spec, max_iterations=200).explore()
        assert result.status is ExplorationStatus.INFEASIBLE
        assert result.architecture is None

    def test_infeasible_raises_in_strict_mode(self, impossible_problem):
        mt, spec = impossible_problem
        explorer = ContrArcExplorer(mt, spec, max_iterations=200)
        with pytest.raises(NoFeasibleArchitectureError):
            explorer.explore_or_raise()

    def test_iteration_limit(self, problem):
        mt, spec = problem
        result = ContrArcExplorer(mt, spec, max_iterations=1).explore()
        assert result.status is ExplorationStatus.ITERATION_LIMIT
        assert result.last_violation is not None

    def test_iteration_limit_raises_in_strict_mode(self, problem):
        mt, spec = problem
        explorer = ContrArcExplorer(mt, spec, max_iterations=1)
        with pytest.raises(ExplorationError, match="converge"):
            explorer.explore_or_raise()

    def test_run_stops_at_its_time_limit(self, problem, monkeypatch):
        """A run whose time budget has passed ends with TIME_LIMIT before
        its next candidate solve, not with an error or a hang."""
        import time

        import repro.explore.engine as engine

        mt, spec = problem
        shift = [0.0]
        perf_counter = time.perf_counter
        monkeypatch.setattr(time, "perf_counter", lambda: perf_counter() + shift[0])
        build = engine.build_candidate_milp

        def build_then_jump(*args):
            # The run has started by now; from here on its budget is spent.
            shift[0] = 7200.0
            return build(*args)

        monkeypatch.setattr(engine, "build_candidate_milp", build_then_jump)
        explorer = ContrArcExplorer(mt, spec, time_limit=3600.0)
        result = explorer.explore()
        assert result.status is ExplorationStatus.TIME_LIMIT
        assert result.stats.num_iterations == 0
        shift[0] = 0.0
        with pytest.raises(ExplorationError, match="3600s time budget"):
            explorer.explore_or_raise()

    def test_bad_max_iterations(self, problem):
        mt, spec = problem
        with pytest.raises(ExplorationError):
            ContrArcExplorer(mt, spec, max_iterations=0)


class TestProgress:
    """Every rejected candidate must be excluded by a cut of its own
    iteration; a loop that would stall raises instead."""

    def test_cut_the_candidate_satisfies_raises(self, problem, monkeypatch):
        mt, spec = problem
        # ``x_0 <= 1`` holds at every 0/1 point.
        vacuous = Cut(
            np.array([0]),
            np.ones(1),
            1.0,
            mt.structural_columns.variables,
            "vacuous",
            "vacuous",
        )
        monkeypatch.setattr(
            "repro.explore.engine.generate_cuts", lambda *a, **k: [vacuous]
        )
        explorer = ContrArcExplorer(mt, spec, max_iterations=100)
        with pytest.raises(ExplorationError, match="iteration 1: .*timing"):
            explorer.explore()

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize(
        "build",
        [
            lambda: epn.build_problem(1, 0, 0),
            lambda: rpl.build_problem(1, 1),
            lambda: wsn.build_problem(2, 2, 1),
        ],
        ids=["epn-1-0-0", "rpl-1-1", "wsn-2-2-1"],
    )
    def test_case_studies_never_stall(self, build, scenario):
        mt, spec = build()
        result = ContrArcExplorer(
            mt, spec, max_iterations=30, **SCENARIOS[scenario]
        ).explore()
        assert result.status in (
            ExplorationStatus.OPTIMAL,
            ExplorationStatus.ITERATION_LIMIT,
        )

    def test_only_iso_wsn_2_2_2_reaches_optimum(self):
        # Keying embeddings on their node and edge image alone drops
        # the identity embedding's cut on this instance (two embeddings
        # share an image but not their widened implementation sets),
        # and the loop stalls.
        mt, spec = wsn.build_problem(2, 2, 2)
        result = ContrArcExplorer(
            mt, spec, max_iterations=200, **SCENARIOS["only-iso"]
        ).explore()
        assert result.status is ExplorationStatus.OPTIMAL
        assert result.cost == pytest.approx(20)


class TestStats:
    def test_milp_size_recorded(self, problem):
        mt, spec = problem
        result = ContrArcExplorer(mt, spec, max_iterations=100).explore()
        assert result.stats.milp_variables > 0
        assert result.stats.milp_constraints > 0

    def test_times_recorded(self, problem):
        mt, spec = problem
        result = ContrArcExplorer(mt, spec, max_iterations=100).explore()
        assert result.stats.total_time > 0
        assert result.stats.milp_time > 0
        assert result.stats.refinement_time > 0

    def test_result_repr(self, problem):
        mt, spec = problem
        result = ContrArcExplorer(mt, spec, max_iterations=100).explore()
        assert "optimal" in repr(result)


class TestSolutionValidity:
    def test_selected_architecture_satisfies_refinement(self, problem):
        from repro.explore.refinement_check import RefinementChecker

        mt, spec = problem
        result = ContrArcExplorer(mt, spec, max_iterations=100).explore()
        checker = RefinementChecker(mt, spec)
        assert checker.check(result.architecture) is None

    def test_structure_is_wellformed(self, problem):
        mt, spec = problem
        result = ContrArcExplorer(mt, spec, max_iterations=100).explore()
        arch = result.architecture
        graph = arch.graph()
        # Required endpoints are instantiated and connected.
        assert arch.is_instantiated("src")
        assert arch.is_instantiated("sink")
        paths = list(graph.nodes())
        assert graph.num_edges == 2  # src -> w -> sink
