"""Tests for the native-backend presolve."""

import numpy as np
import pytest

from repro.expr.terms import binary, continuous, integer
from repro.solver import branch_bound, scipy_backend
from repro.solver.model import Model
from repro.solver.presolve import PresolveStatus, presolve
from repro.solver.result import SolveStatus


def _form(model):
    """The native backend's dense copy of ``model``, as presolve gets it."""
    return branch_bound.densify(model.to_matrix_form())


class TestBoundTightening:
    def test_single_row_tightens_upper(self):
        x = continuous("x", 0, 100)
        m = Model()
        m.add_le(2 * x, 10)
        result = presolve(_form(m))
        assert result.status is PresolveStatus.REDUCED
        j = result.form.variables.index(x)
        assert result.form.upper[j] == pytest.approx(5.0)

    def test_negative_coefficient_tightens_lower(self):
        x = continuous("x", -100, 100)
        m = Model()
        m.add_le(-3 * x, 6)  # x >= -2
        result = presolve(_form(m))
        j = result.form.variables.index(x)
        assert result.form.lower[j] == pytest.approx(-2.0)

    def test_integer_rounding(self):
        i = integer("i", 0, 100)
        m = Model()
        m.add_le(2 * i, 7)  # i <= 3.5 -> 3
        result = presolve(_form(m))
        j = result.form.variables.index(i)
        assert result.form.upper[j] == pytest.approx(3.0)

    def test_propagation_through_rows(self):
        x = continuous("x", 0, 100)
        y = continuous("y", 0, 100)
        m = Model()
        m.add_le(x.to_expr(), 4)
        m.add_le(y - x, 0)  # y <= x <= 4
        result = presolve(_form(m))
        j = result.form.variables.index(y)
        assert result.form.upper[j] == pytest.approx(4.0)

    def test_equality_tightens_both_sides(self):
        x = continuous("x", 0, 100)
        m = Model()
        m.add_eq(x.to_expr(), 7)
        result = presolve(_form(m))
        j = result.form.variables.index(x)
        assert result.form.lower[j] == pytest.approx(7.0)
        assert result.form.upper[j] == pytest.approx(7.0)


class TestRowElimination:
    def test_redundant_row_dropped(self):
        x = continuous("x", 0, 1)
        m = Model()
        m.add_le(x.to_expr(), 100)  # trivially satisfied on the box
        result = presolve(_form(m))
        assert result.rows_removed == 1
        assert result.form.a_ub.shape[0] == 0


class TestInfeasibility:
    def test_crossing_bounds_detected(self):
        x = continuous("x", 0, 10)
        m = Model()
        m.add_le(x.to_expr(), 3)
        m.add_le(-x.to_expr(), -5)  # x >= 5
        result = presolve(_form(m))
        assert result.status is PresolveStatus.INFEASIBLE

    def test_impossible_row_detected(self):
        b1, b2 = binary("pb1"), binary("pb2")
        m = Model()
        m.add_ge(b1 + b2, 3)  # max activity 2
        result = presolve(_form(m))
        assert result.status is PresolveStatus.INFEASIBLE


class TestEndToEnd:
    @pytest.mark.parametrize("seed", range(8))
    def test_presolve_preserves_optimum(self, seed):
        rng = np.random.default_rng(seed)
        xs = [integer(f"e{seed}_{k}", 0, 6) for k in range(4)]
        m = Model()
        for _ in range(4):
            coeffs = rng.integers(-3, 4, size=4)
            expr = sum(
                (int(coeffs[i]) * xs[i] for i in range(4)), start=xs[0] * 0
            )
            m.add_le(expr, int(rng.integers(2, 12)))
        cost = rng.integers(-4, 5, size=4)
        m.set_objective(
            sum((int(cost[i]) * xs[i] for i in range(4)), start=xs[0] * 0)
        )
        with_presolve = branch_bound.solve_matrix(
            m.to_matrix_form(), use_presolve=True
        )
        without = branch_bound.solve_matrix(
            m.to_matrix_form(), use_presolve=False
        )
        ref = scipy_backend.solve(m)
        assert with_presolve.status == without.status == ref.status
        if ref.status is SolveStatus.OPTIMAL:
            assert with_presolve.objective == pytest.approx(ref.objective)
            assert without.objective == pytest.approx(ref.objective)

    def test_presolve_shrinks_search(self):
        # A problem where bound tightening fixes most of the search.
        xs = [integer(f"s{k}", 0, 50) for k in range(3)]
        m = Model()
        m.add_le(xs[0] + xs[1] + xs[2], 3)
        m.add_ge(xs[0].to_expr(), 1)
        m.set_objective(-(xs[0] + 2 * xs[1] + 3 * xs[2]))
        result = branch_bound.solve_matrix(m.to_matrix_form())
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(-(1 + 0 + 3 * 2))
