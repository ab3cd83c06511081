"""Tests for the ArchEx-style baselines.

Key property: the monolithic encoding and the ContrArc loop accept the
same architectures and find optima of the same cost (Fig. 5a claims
"same cost, different runtime").
"""

import pytest

from repro.arch.architecture import CandidateArchitecture
from repro.explore.baseline import (
    MonolithicExplorer,
    lazy_nogood_explorer,
    worst_case_path_latency,
)
from repro.explore.engine import ContrArcExplorer, ExplorationStatus
from repro.explore.refinement_check import RefinementChecker


class TestWorstCasePathLatency:
    def test_matches_refinement_verdict(self, problem):
        """The closed-form worst case agrees with the SAT oracle on
        every implementation choice."""
        mt, spec = problem
        timing = spec.spec_for("timing")
        checker = RefinementChecker(mt, spec)
        lib = mt.library
        path = ["src", "w1", "sink"]
        for impl_name in ("w_slow", "w_mid", "w_fast"):
            candidate = CandidateArchitecture(
                mt,
                [("src", "w1"), ("w1", "sink")],
                {
                    "src": lib.get("src_std"),
                    "w1": lib.get(impl_name),
                    "sink": lib.get("sink_std"),
                },
            )
            expr = worst_case_path_latency(mt, path, timing)
            values = candidate.attribute_assignment()
            worst = expr.substitute(values).constant
            oracle_ok = checker.check(candidate) is None
            formula_ok = worst <= timing.max_latency + 1e-9
            assert oracle_ok == formula_ok, impl_name

    def test_intermediate_jitter_counted(self, problem):
        # Two-worker chain template would add the first worker's output
        # jitter; in the single-hop path there is no intermediate jitter.
        mt, spec = problem
        timing = spec.spec_for("timing")
        expr = worst_case_path_latency(mt, ["src", "w1", "sink"], timing)
        lat = mt.attribute("latency", "w1")
        assert expr.coefficient(lat) == 1.0
        assert expr.constant == 0.0


class TestMonolithic:
    def test_same_cost_as_contrarc(self, problem):
        mt, spec = problem
        contrarc = ContrArcExplorer(mt, spec, max_iterations=200).explore()
        mono = MonolithicExplorer(mt, spec).explore()
        assert mono.status is ExplorationStatus.OPTIMAL
        assert mono.cost == pytest.approx(contrarc.cost)

    def test_single_iteration(self, problem):
        mt, spec = problem
        mono = MonolithicExplorer(mt, spec).explore()
        assert mono.stats.num_iterations == 1

    def test_loose_deadline(self, loose_problem):
        mt, spec = loose_problem
        contrarc = ContrArcExplorer(mt, spec, max_iterations=200).explore()
        mono = MonolithicExplorer(mt, spec).explore()
        assert mono.cost == pytest.approx(contrarc.cost)

    def test_infeasible_detected(self, impossible_problem):
        mt, spec = impossible_problem
        mono = MonolithicExplorer(mt, spec).explore()
        assert mono.status is ExplorationStatus.INFEASIBLE

    def test_monolithic_milp_is_larger(self, problem):
        mt, spec = problem
        mono = MonolithicExplorer(mt, spec).explore()
        contrarc = ContrArcExplorer(mt, spec, max_iterations=200).explore()
        assert mono.stats.milp_constraints > 0
        # The monolithic model carries the compiled system constraints.
        assert mono.stats.milp_constraints >= contrarc.stats.milp_constraints

    def test_solution_passes_refinement(self, problem):
        mt, spec = problem
        mono = MonolithicExplorer(mt, spec).explore()
        checker = RefinementChecker(mt, spec)
        assert checker.check(mono.architecture) is None

    def test_times_come_from_spans(self, problem):
        mt, spec = problem
        stats = MonolithicExplorer(mt, spec).explore().stats
        # milp_time is build plus solve, inside the run span.
        assert stats.total_time >= stats.milp_time > 0
        assert stats.milp_time == stats.iterations[0].milp_time


class TestLazyNoGood:
    def test_same_cost_more_iterations(self, problem):
        mt, spec = problem
        contrarc = ContrArcExplorer(mt, spec, max_iterations=300).explore()
        lazy = lazy_nogood_explorer(mt, spec, max_iterations=300).explore()
        assert lazy.status is ExplorationStatus.OPTIMAL
        assert lazy.cost == pytest.approx(contrarc.cost)
        assert lazy.stats.num_iterations >= contrarc.stats.num_iterations

    def test_flags(self, problem):
        mt, spec = problem
        explorer = lazy_nogood_explorer(mt, spec)
        assert not explorer.use_isomorphism
        assert not explorer.use_decomposition
        assert not explorer.widen_implementations
