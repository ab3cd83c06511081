"""Tests for the Problem-2 MILP encoding."""

import pytest

from repro.arch.architecture import CandidateArchitecture
from repro.explore.encoding import (
    build_candidate_milp,
    cost_expression,
    exclude_candidate_cut,
    symmetry_breaking_constraints,
    symmetry_groups,
)
from repro.solver.encoder import FormulaEncoder
from repro.solver.scipy_backend import solve


class TestCostExpression:
    def test_costs_attach_to_mapping_vars(self, problem):
        mt, _ = problem
        expr = cost_expression(mt)
        m_slow = mt.mapping("w1", "w_slow")
        m_fast = mt.mapping("w1", "w_fast")
        assert expr.coefficient(m_slow) == 3.0
        assert expr.coefficient(m_fast) == 7.0
        assert expr.constant == 0.0

    def test_weights_scale_costs(self, problem):
        mt, _ = problem
        mt.template.component("w1").weight = 2.0
        try:
            expr = cost_expression(mt)
            assert expr.coefficient(mt.mapping("w1", "w_slow")) == 6.0
        finally:
            mt.template.component("w1").weight = 1.0


class TestCandidateMilp:
    def test_solves_to_wellformed_candidate(self, problem):
        mt, spec = problem
        model = build_candidate_milp(mt, spec)
        result = solve(model)
        assert result.is_optimal
        candidate = CandidateArchitecture.from_assignment(mt, result.assignment)
        # Required endpoints, one worker, two edges.
        assert candidate.is_instantiated("src")
        assert candidate.is_instantiated("sink")
        assert len(candidate.selected_edges) == 2
        # Cheapest local choice: w_slow.
        workers = [
            impl
            for name, impl in candidate.selected_impls.items()
            if name.startswith("w")
        ]
        assert [w.name for w in workers] == ["w_slow"]

    def test_cuts_are_enforced(self, problem):
        mt, spec = problem
        model = build_candidate_milp(mt, spec)
        first = CandidateArchitecture.from_assignment(
            mt, solve(model).assignment
        )
        # Forbid the exact first candidate by its no-good row.
        FormulaEncoder(model, prefix="cut").enforce(
            exclude_candidate_cut(mt, first).formula
        )
        second = CandidateArchitecture.from_assignment(
            mt, solve(model).assignment
        )
        assert (
            second.selected_impls != first.selected_impls
            or second.selected_edges != first.selected_edges
        )

    def test_extra_constraints(self, problem):
        mt, spec = problem
        from repro.expr.terms import LinExpr

        beta_w1 = LinExpr.sum(var for _, var in mt.mappings_of("w1"))
        # Forcing w1 off conflicts with the symmetry ordering (w1 is the
        # canonical first slot), so disable it for this test.
        model = build_candidate_milp(
            mt, spec, extra_constraints=[beta_w1 <= 0], break_symmetry=False
        )
        result = solve(model)
        candidate = CandidateArchitecture.from_assignment(mt, result.assignment)
        assert not candidate.is_instantiated("w1")
        assert candidate.is_instantiated("w2")


class TestSymmetryBreaking:
    def test_workers_form_a_group(self, problem):
        mt, _ = problem
        groups = symmetry_groups(mt)
        assert ["w1", "w2"] in groups

    def test_singletons_excluded(self, problem):
        mt, _ = problem
        for group in symmetry_groups(mt):
            assert len(group) > 1

    def test_ordering_constraints_emitted(self, problem):
        mt, _ = problem
        constraints = symmetry_breaking_constraints(mt)
        assert len(constraints) == 1  # one pair (w1, w2)

    def test_respects_parameter_differences(self, problem):
        mt, _ = problem
        mt.template.component("w2").params["special"] = 1.0
        try:
            groups = symmetry_groups(mt)
            assert ["w1", "w2"] not in groups
        finally:
            del mt.template.component("w2").params["special"]

    def test_symmetry_breaking_prefers_first_slot(self, problem):
        mt, spec = problem
        model = build_candidate_milp(mt, spec, break_symmetry=True)
        candidate = CandidateArchitecture.from_assignment(
            mt, solve(model).assignment
        )
        assert candidate.is_instantiated("w1")
        assert not candidate.is_instantiated("w2")

    def test_optimum_unchanged_by_symmetry_breaking(self, problem):
        mt, spec = problem
        with_sb = solve(build_candidate_milp(mt, spec, break_symmetry=True))
        without = solve(build_candidate_milp(mt, spec, break_symmetry=False))
        assert with_sb.objective == pytest.approx(without.objective)

    def test_rpl_stage_groups(self):
        from repro.casestudies import rpl

        mt, _ = rpl.build_problem(3)
        groups = symmetry_groups(mt)
        # 5 stages of 3 interchangeable candidates each.
        assert len(groups) == 5
        assert all(len(g) == 3 for g in groups)
