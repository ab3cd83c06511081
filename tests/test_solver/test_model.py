"""Tests for the MILP model container."""

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.expr.terms import binary, continuous, integer
from repro.solver.model import ConstraintSense, LinearConstraint, Model


def _candidate_milp(case: str) -> Model:
    """Problem 2's candidate MILP of a small RPL or EPN instance."""
    from repro.casestudies import epn, rpl
    from repro.explore.encoding import build_candidate_milp

    if case == "rpl-1-1":
        return build_candidate_milp(*rpl.build_problem(1, 1))
    return build_candidate_milp(*epn.build_problem(1, 1, 0))


@pytest.fixture
def xy():
    return continuous("x", 0, 10), continuous("y", 0, 10)


class TestVariables:
    def test_add_variable_idempotent(self, xy):
        x, _ = xy
        m = Model()
        m.add_variable(x)
        m.add_variable(x)
        assert m.num_variables == 1

    def test_factories(self):
        m = Model()
        b = m.new_binary("b")
        i = m.new_integer("i", 0, 5)
        c = m.new_continuous("c", -1, 1)
        assert b.is_binary and i.is_integral and not c.is_integral
        assert m.num_variables == 3

    def test_index_of_unknown_raises(self, xy):
        x, _ = xy
        with pytest.raises(SolverError):
            Model().index_of(x)

    def test_index_stable(self, xy):
        x, y = xy
        m = Model()
        m.add_variables([x, y])
        assert m.index_of(x) == 0
        assert m.index_of(y) == 1


class TestConstraints:
    def test_add_le_ge_eq(self, xy):
        x, y = xy
        m = Model()
        m.add_le(x + y, 5)
        m.add_ge(x, 1)
        m.add_eq(y, 2)
        assert m.num_constraints == 3
        senses = [c.sense for c in m.constraints]
        assert senses == [
            ConstraintSense.LE,
            ConstraintSense.GE,
            ConstraintSense.EQ,
        ]

    def test_comparison_atom_accepted(self, xy):
        x, _ = xy
        m = Model()
        cons = m.add_constraint(x <= 4)
        assert cons.sense is ConstraintSense.LE
        assert cons.rhs == 4.0

    def test_eq_comparison_atom(self, xy):
        x, _ = xy
        m = Model()
        cons = m.add_constraint(x.eq(3))
        assert cons.sense is ConstraintSense.EQ
        assert cons.rhs == 3.0

    def test_constraint_registers_vars(self, xy):
        x, y = xy
        m = Model()
        m.add_le(x + y, 5)
        assert m.num_variables == 2

    def test_garbage_rejected(self):
        with pytest.raises(SolverError):
            Model().add_constraint("x <= 5")

    def test_violated_by(self, xy):
        x, _ = xy
        le = LinearConstraint(x.to_expr(), ConstraintSense.LE, 5.0)
        ge = LinearConstraint(x.to_expr(), ConstraintSense.GE, 5.0)
        eq = LinearConstraint(x.to_expr(), ConstraintSense.EQ, 5.0)
        assert not le.violated_by({x: 5})
        assert le.violated_by({x: 6})
        assert ge.violated_by({x: 4})
        assert eq.violated_by({x: 4})
        assert not eq.violated_by({x: 5})


class TestFeasibilityCheck:
    def test_is_feasible(self, xy):
        x, y = xy
        m = Model()
        m.add_le(x + y, 5)
        assert m.is_feasible({x: 2, y: 2})
        assert not m.is_feasible({x: 4, y: 4})

    def test_bounds_checked(self, xy):
        x, _ = xy
        m = Model()
        m.add_variable(x)
        assert not m.is_feasible({x: 11})
        assert not m.is_feasible({x: -1})

    def test_integrality_checked(self):
        m = Model()
        i = m.new_integer("i", 0, 5)
        assert m.is_feasible({i: 3})
        assert not m.is_feasible({i: 2.5})

    def test_missing_assignment(self, xy):
        x, _ = xy
        m = Model()
        m.add_variable(x)
        assert not m.is_feasible({})


class TestMatrixForm:
    def test_shapes_and_content(self, xy):
        x, y = xy
        m = Model()
        m.add_le(2 * x + y, 8)
        m.add_ge(x, 1)          # becomes -x <= -1
        m.add_eq(x + y, 4)
        m.set_objective(x + 3 * y)
        form = m.to_matrix_form()
        assert form.a_ub.shape == (2, 2)
        assert form.a_eq.shape == (1, 2)
        assert list(form.a_ub.indptr) == [0, 2, 3]
        assert list(form.a_ub.indices) == [0, 1, 0]
        np.testing.assert_allclose(form.a_ub.data, [2, 1, -1])
        np.testing.assert_allclose(form.a_ub.toarray(), [[2, 1], [-1, 0]])
        np.testing.assert_allclose(form.a_eq.toarray(), [[1, 1]])
        np.testing.assert_allclose(form.b_ub, [8, -1])
        np.testing.assert_allclose(form.objective, [1, 3])

    @pytest.mark.parametrize("case", ["rpl-1-1", "epn-1-1-0"])
    def test_rows_match_per_row_reference(self, case):
        """The CSR blocks of a candidate MILP equal a row-at-a-time
        conversion: GE rows negated, indices sorted, no explicit zeros."""
        model = _candidate_milp(case)
        form = model.to_matrix_form()
        expected = {"ub": ([], []), "eq": ([], [])}
        for constraint in model.constraints:
            sign = -1.0 if constraint.sense is ConstraintSense.GE else 1.0
            row = sorted(
                (model.index_of(var), sign * float(coef))
                for var, coef in constraint.expr.coeffs.items()
                if coef != 0
            )
            block = "eq" if constraint.sense is ConstraintSense.EQ else "ub"
            expected[block][0].append(row)
            expected[block][1].append(
                sign * (constraint.rhs - constraint.expr.constant)
            )
        for block, a, b in (
            ("ub", form.a_ub, form.b_ub),
            ("eq", form.a_eq, form.b_eq),
        ):
            rows, rhs = expected[block]
            assert a.shape == (len(rows), model.num_variables)
            got = [
                list(zip(a.indices[lo:hi].tolist(), a.data[lo:hi].tolist()))
                for lo, hi in zip(a.indptr[:-1], a.indptr[1:])
            ]
            assert got == rows
            assert b.tolist() == rhs
            assert a.indptr.dtype == a.indices.dtype == np.int32
        assert form.a_ub.shape[0] and form.a_eq.shape[0]

    def test_extended_form_equals_fresh_build(self, xy):
        """Appends of rows of every sense and of new variables extend the
        cached form to exactly what a fresh conversion builds."""
        x, y = xy
        m = Model()
        m.add_le(2 * x + y, 8)
        m.set_objective(x + 3 * y)
        m.to_matrix_form()
        b = m.new_binary("b")
        m.add_ge(x - 4 * b, -1)
        m.add_eq(y + b, 1)
        m.to_matrix_form()
        i = integer("i", 0, 3)
        m.add_le(i - 0 * x + y, 5)
        m.add_variable(continuous("c", 0, 1))
        extended = m.to_matrix_form()
        fresh = m.copy().to_matrix_form()
        assert extended is not fresh
        assert extended.variables == fresh.variables
        for field in ("objective", "b_ub", "b_eq", "lower", "upper", "integrality"):
            np.testing.assert_array_equal(
                getattr(extended, field), getattr(fresh, field)
            )
        for block in ("a_ub", "a_eq"):
            got, want = getattr(extended, block), getattr(fresh, block)
            assert got.shape == want.shape
            assert want.shape[1] == 5
            for part in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(got, part), getattr(want, part))

    def test_constant_in_expr_moves_to_rhs(self, xy):
        x, _ = xy
        m = Model()
        m.add_le(x + 2, 5)
        form = m.to_matrix_form()
        assert form.b_ub[0] == 3.0

    def test_maximize_negates(self, xy):
        x, _ = xy
        m = Model()
        m.add_variable(x)
        m.set_objective(x.to_expr(), minimize=False)
        form = m.to_matrix_form()
        assert form.objective[0] == -1.0

    def test_integrality_mask(self):
        m = Model()
        m.new_binary("b")
        m.new_continuous("c", 0, 1)
        m.new_integer("i", 0, 3)
        form = m.to_matrix_form()
        assert list(form.integrality) == [1, 0, 1]

    def test_copy_independent(self, xy):
        x, y = xy
        m = Model()
        m.add_le(x, 5)
        clone = m.copy()
        clone.add_le(y, 5)
        assert m.num_constraints == 1
        assert clone.num_constraints == 2
        assert m.num_variables == 1
        assert clone.num_variables == 2

    def test_objective_value(self, xy):
        x, y = xy
        m = Model()
        m.set_objective(2 * x + y + 1)
        assert m.objective_value({x: 2, y: 3}) == 8.0
