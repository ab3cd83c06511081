"""Tests for the reference branch-and-bound MILP solver."""

import numpy as np
import pytest

from repro.expr.terms import binary, continuous, integer
from repro.solver import branch_bound, scipy_backend
from repro.solver.model import Model
from repro.solver.result import SolveStatus


class TestSmallMILPs:
    def test_knapsack(self):
        values = [10, 13, 7, 8]
        weights = [3, 4, 2, 3]
        items = [binary(f"item{i}") for i in range(4)]
        m = Model("knapsack")
        m.add_le(sum((weights[i] * items[i] for i in range(4)), start=items[0] * 0), 7)
        m.set_objective(
            sum((values[i] * items[i] for i in range(4)), start=items[0] * 0),
            minimize=False,
        )
        res = branch_bound.solve(m)
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(23.0)  # items 1 and 3

    def test_integer_rounding_not_optimal(self):
        # LP relaxation optimum is fractional and naive rounding is wrong.
        x = integer("x", 0, 100)
        y = integer("y", 0, 100)
        m = Model()
        m.add_le(-2 * x + 2 * y, 1)
        m.add_le(2 * x - 2 * y, 1)  # forces x == y for integers
        m.add_le(x + y, 7)
        m.set_objective(-x - 2 * y)
        res = branch_bound.solve(m)
        assert res.status is SolveStatus.OPTIMAL
        assert res.rounded(x) == res.rounded(y)
        assert res.rounded(x) + res.rounded(y) <= 7

    def test_infeasible_integrality(self):
        # 2x == 3 has no integer solution for x in [0, 5].
        x = integer("x", 0, 5)
        m = Model()
        m.add_eq(2 * x, 3)
        res = branch_bound.solve(m)
        assert res.status is SolveStatus.INFEASIBLE

    def test_infeasible_lp(self):
        x = continuous("x", 0, 1)
        m = Model()
        m.add_ge(x, 2)
        res = branch_bound.solve(m)
        assert res.status is SolveStatus.INFEASIBLE

    def test_mixed_integer_continuous(self):
        b = binary("b")
        x = continuous("x", 0, 10)
        m = Model()
        # x <= 10 b (big-M link), maximize x - 3 b
        m.add_le(x - 10 * b, 0)
        m.set_objective(x - 3 * b, minimize=False)
        res = branch_bound.solve(m)
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(7.0)
        assert res.rounded(b) == 1

    def test_maximize_sign_handling(self):
        x = integer("x", 0, 4)
        m = Model()
        m.add_variable(x)
        m.set_objective(x.to_expr(), minimize=False)
        res = branch_bound.solve(m)
        assert res.objective == pytest.approx(4.0)

    def test_solution_satisfies_model(self):
        rng = np.random.default_rng(3)
        xs = [integer(f"x{i}", 0, 5) for i in range(4)]
        m = Model()
        for _ in range(3):
            coeffs = rng.integers(-3, 4, size=4)
            expr = sum(
                (int(coeffs[i]) * xs[i] for i in range(4)), start=xs[0] * 0
            )
            m.add_le(expr, int(rng.integers(3, 10)))
        m.set_objective(sum((x for x in xs), start=xs[0] * 0), minimize=False)
        res = branch_bound.solve(m)
        assert res.status is SolveStatus.OPTIMAL
        assert m.is_feasible(res.assignment)


class TestAgainstScipyBackend:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_binary_programs(self, seed):
        rng = np.random.default_rng(seed)
        n, m_rows = 6, 4
        xs = [binary(f"b{i}") for i in range(n)]
        model = Model()
        for r in range(m_rows):
            coeffs = rng.integers(-2, 5, size=n)
            expr = sum(
                (int(coeffs[i]) * xs[i] for i in range(n)), start=xs[0] * 0
            )
            model.add_le(expr, int(rng.integers(2, 8)))
        cost = rng.integers(-5, 6, size=n)
        model.set_objective(
            sum((int(cost[i]) * xs[i] for i in range(n)), start=xs[0] * 0)
        )
        ours = branch_bound.solve(model)
        ref = scipy_backend.solve(model)
        assert ours.status == ref.status
        if ours.status is SolveStatus.OPTIMAL:
            assert ours.objective == pytest.approx(ref.objective, abs=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_mixed_programs(self, seed):
        rng = np.random.default_rng(50 + seed)
        ints = [integer(f"i{k}", 0, 4) for k in range(3)]
        conts = [continuous(f"c{k}", 0, 4) for k in range(2)]
        all_vars = ints + conts
        model = Model()
        for _ in range(3):
            coeffs = rng.uniform(-1, 2, size=5)
            expr = sum(
                (float(coeffs[i]) * all_vars[i] for i in range(5)),
                start=all_vars[0] * 0.0,
            )
            model.add_le(expr, float(rng.uniform(2, 6)))
        cost = rng.uniform(-2, 2, size=5)
        model.set_objective(
            sum(
                (float(cost[i]) * all_vars[i] for i in range(5)),
                start=all_vars[0] * 0.0,
            )
        )
        ours = branch_bound.solve(model)
        ref = scipy_backend.solve(model)
        assert ours.status == ref.status
        if ours.status is SolveStatus.OPTIMAL:
            assert ours.objective == pytest.approx(ref.objective, abs=1e-5)


    @pytest.mark.parametrize("seed", range(8))
    def test_random_equality_programs(self, seed):
        """Integer programs with EQ rows, the shape HiGHS's presolve has
        been seen to mishandle (see ``scipy_backend.solve_matrix``)."""
        rng = np.random.default_rng(100 + seed)
        n = 5
        xs = [integer(f"e{i}", 0, 3) for i in range(n)]
        model = Model()
        for _ in range(2):
            coeffs = rng.integers(-2, 4, size=n)
            expr = sum((int(coeffs[i]) * xs[i] for i in range(n)), start=xs[0] * 0)
            model.add_le(expr, int(rng.integers(3, 9)))
        eq = rng.integers(0, 3, size=n)
        model.add_eq(
            sum((int(eq[i]) * xs[i] for i in range(n)), start=xs[0] * 0),
            int(rng.integers(1, 6)),
        )
        cost = rng.integers(-4, 5, size=n)
        model.set_objective(
            sum((int(cost[i]) * xs[i] for i in range(n)), start=xs[0] * 0)
        )
        ours = branch_bound.solve(model)
        ref = scipy_backend.solve(model)
        assert ours.status == ref.status
        if ours.status is SolveStatus.OPTIMAL:
            assert ours.objective == pytest.approx(ref.objective, abs=1e-6)
            assert model.is_feasible(ours.assignment)


@pytest.fixture
def solve_route(request, monkeypatch):
    """A stateless solve function: the reference branch-and-bound, the
    scipy backend, or the scipy backend without the vendored HiGHS
    binding (each solve a ``scipy.optimize.milp`` run)."""
    if request.param == "native":
        return branch_bound.solve
    if request.param == "scipy-fallback":
        monkeypatch.setattr(scipy_backend, "_highs_core", None)
    return scipy_backend.solve


ROUTES = ["native", "scipy", "scipy-fallback"]


@pytest.mark.parametrize("solve_route", ROUTES, indirect=True)
class TestInfeasibilityAgreement:
    def test_impossible_row(self, solve_route):
        # Four binaries cannot sum to five.
        bs = [binary(f"ir{i}") for i in range(4)]
        m = Model()
        m.add_ge(sum((b for b in bs), start=bs[0] * 0), 5)
        m.set_objective(sum((b for b in bs), start=bs[0] * 0))
        assert solve_route(m).status is SolveStatus.INFEASIBLE

    def test_rows_crossing_through_propagation(self, solve_route):
        # x + y >= 7 forces y >= 3, which y - 2z <= 0 lifts to z >= 1.5
        # on a binary z.
        x = integer("cx", 0, 4)
        y = integer("cy", 0, 4)
        z = binary("cz")
        m = Model()
        m.add_ge(x + y, 7)
        m.add_le(y - 2 * z, 0)
        m.set_objective(x + y)
        assert solve_route(m).status is SolveStatus.INFEASIBLE


def _multi_knapsack(n: int = 20, seed: int = 7) -> Model:
    """Three-row 0/1 knapsack that branch-and-bound needs ~50 nodes for."""
    rng = np.random.default_rng(seed)
    x = [binary(f"k{i}") for i in range(n)]
    m = Model("multi-knapsack")
    for _ in range(3):
        w = rng.integers(3, 20, n)
        m.add_le(
            sum((float(w[i]) * x[i] for i in range(n)), start=0 * x[0]),
            float(w.sum() // 3),
        )
    v = rng.integers(5, 30, n)
    m.set_objective(
        sum((float(v[i]) * x[i] for i in range(n)), start=0 * x[0]), minimize=False
    )
    return m


class TestNodeLimit:
    def test_zero_node_budget_stops_before_the_first_node(self):
        form = _multi_knapsack().to_matrix_form()
        assert branch_bound.solve_matrix(form).iterations > 10
        result = branch_bound.solve_matrix(form, max_nodes=0)
        assert result.status is SolveStatus.ITERATION_LIMIT
        assert result.iterations == 0
        assert result.assignment == {}

    def test_ample_node_budget_changes_nothing(self):
        form = _multi_knapsack().to_matrix_form()
        free = branch_bound.solve_matrix(form)
        bounded = branch_bound.solve_matrix(form, max_nodes=free.iterations)
        assert (bounded.status, bounded.objective, bounded.iterations) == (
            free.status,
            free.objective,
            free.iterations,
        )
        assert free.objective == pytest.approx(
            -scipy_backend.solve(_multi_knapsack()).objective
        )


    def test_budget_short_of_the_proof_is_not_optimal(self):
        model = _multi_knapsack()
        form = model.to_matrix_form()
        free = branch_bound.solve_matrix(form)
        assert free.status is SolveStatus.OPTIMAL
        cut = branch_bound.solve_matrix(form, max_nodes=free.iterations - 10)
        assert cut.status is SolveStatus.ITERATION_LIMIT
        # The incumbent is still reported, and the open nodes it
        # abandoned would have improved it.
        assert cut.assignment and cut.objective > free.objective
        # Through ``solve`` the maximization sign applies to it as well.
        bounded = branch_bound.solve(model, max_nodes=free.iterations - 10)
        assert bounded.status is SolveStatus.ITERATION_LIMIT
        assert bounded.objective == pytest.approx(-cut.objective)
        assert branch_bound.solve(model).objective == pytest.approx(
            scipy_backend.solve(model).objective
        )


class TestMostFractional:
    def test_integral_point_has_no_branch_variable(self):
        x = np.array([0.0, 1.0, 3.0 + 1e-9])
        assert branch_bound._most_fractional(x, np.ones(3, dtype=bool)) is None

    def test_picks_the_variable_farthest_from_an_integer(self):
        x = np.array([0.2, 1.45, 2.9])
        assert branch_bound._most_fractional(x, np.ones(3, dtype=bool)) == 1

    def test_continuous_variables_are_never_branched_on(self):
        x = np.array([0.5, 1.25, 2.0])
        mask = np.array([False, True, True])
        assert branch_bound._most_fractional(x, mask) == 1
        assert branch_bound._most_fractional(x, np.zeros(3, dtype=bool)) is None
