"""Tests specific to the scipy/HiGHS backend adapter."""

import numpy as np
import pytest

from repro.expr.constraints import BoolAtom, Implies
from repro.expr.terms import binary, continuous, integer
from repro.solver import scipy_backend
from repro.solver.feasibility import check_sat
from repro.solver.model import Model
from repro.solver.result import SolveStatus
from repro.solver.session import IncrementalSession


class TestStatusMapping:
    def test_optimal(self):
        x = continuous("sx", 0, 5)
        m = Model()
        m.add_ge(x.to_expr(), 2)
        m.set_objective(x.to_expr())
        result = scipy_backend.solve(m)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(2.0)

    def test_infeasible(self):
        x = continuous("sy", 0, 1)
        m = Model()
        m.add_ge(x.to_expr(), 2)
        assert scipy_backend.solve(m).status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        x = continuous("sz", 0)
        m = Model()
        m.add_variable(x)
        m.set_objective(-x.to_expr())
        result = scipy_backend.solve(m)
        assert result.status in (
            SolveStatus.UNBOUNDED,
            SolveStatus.ERROR,  # HiGHS may report unbounded as an error class
        )

    def test_maximization(self):
        x = continuous("sw", 0, 9)
        m = Model()
        m.add_variable(x)
        m.set_objective(x.to_expr(), minimize=False)
        result = scipy_backend.solve(m)
        assert result.objective == pytest.approx(9.0)


class TestIntegerRounding:
    def test_binaries_rounded_exactly(self):
        bs = [binary(f"rb{i}") for i in range(4)]
        m = Model()
        m.add_ge(sum((b for b in bs), start=bs[0] * 0), 2)
        m.set_objective(sum((b for b in bs), start=bs[0] * 0))
        result = scipy_backend.solve(m)
        for b in bs:
            value = result.assignment[b]
            assert value in (0.0, 1.0)

    def test_objective_includes_constant(self):
        x = integer("rc", 0, 5)
        m = Model()
        m.add_ge(x.to_expr(), 1)
        m.set_objective(x + 100)
        result = scipy_backend.solve(m)
        assert result.objective == pytest.approx(101.0)


class TestEmptyModels:
    def test_trivially_feasible(self):
        result = scipy_backend.solve(Model())
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(0.0)

    def test_time_limit_accepted(self):
        x = continuous("st", 0, 5)
        m = Model()
        m.add_ge(x.to_expr(), 1)
        m.set_objective(x.to_expr())
        result = scipy_backend.solve(m, time_limit=10.0)
        assert result.status is SolveStatus.OPTIMAL


def _small_milp() -> Model:
    x = integer("fx", 0, 10)
    y = continuous("fy", 0, 10)
    m = Model()
    m.add_ge(x + y, 3.5)
    m.add_le(x - y, 2)
    m.set_objective(2 * x + y)
    return m


def _feasibility_query() -> Model:
    b = binary("fb")
    y = continuous("fz", 0, 10)
    m = Model()
    m.add_ge(y + 5 * b, 6)
    m.add_le(y, 4)
    return m


@pytest.mark.skipif(
    scipy_backend._highs_core is None, reason="needs scipy's vendored HiGHS"
)
class TestHighsLp:
    def test_rows_match_matrix_form(self):
        m = _small_milp()
        x, y = m.variables
        m.add_eq(3 * y, 6)
        m.add_le(0 * x + y, 9)
        form = m.to_matrix_form()
        lp = scipy_backend.highs_lp(form)
        matrix = lp.a_matrix_
        rebuilt = np.zeros((lp.num_row_, lp.num_col_))
        for i in range(lp.num_row_):
            for k in range(matrix.start_[i], matrix.start_[i + 1]):
                rebuilt[i, matrix.index_[k]] = matrix.value_[k]
        expected = np.concatenate([form.a_ub.toarray(), form.a_eq.toarray()])
        assert np.array_equal(rebuilt, expected)
        assert len(matrix.value_) == np.count_nonzero(rebuilt)
        assert list(matrix.start_) == [0, 2, 4, 5, 6]
        n_ub = form.a_ub.shape[0]
        assert np.all(np.isneginf(lp.row_lower_[:n_ub]))
        assert list(lp.row_upper_[:n_ub]) == list(form.b_ub)
        assert list(lp.row_lower_[n_ub:]) == list(lp.row_upper_[n_ub:]) == [6.0]


@pytest.mark.skipif(
    scipy_backend._highs_core is None, reason="needs scipy's vendored HiGHS"
)
class TestMilpFallback:
    """Without scipy's vendored HiGHS binding (scipy < 1.15) every entry
    point falls back to ``scipy.optimize.milp`` and must answer alike."""

    @staticmethod
    def _outcome(result):
        return result.status, result.objective

    @pytest.mark.parametrize("build", [_small_milp, _feasibility_query])
    def test_solve_matrix(self, build, monkeypatch):
        calls = []
        milp = scipy_backend.milp
        monkeypatch.setattr(
            scipy_backend, "milp", lambda *a, **k: calls.append(1) or milp(*a, **k)
        )
        direct = scipy_backend.solve_matrix(build().to_matrix_form())
        assert not calls
        monkeypatch.setattr(scipy_backend, "_highs_core", None)
        fallback = scipy_backend.solve_matrix(build().to_matrix_form())
        assert calls
        assert direct.status is SolveStatus.OPTIMAL
        assert self._outcome(fallback) == pytest.approx(self._outcome(direct))

    @pytest.mark.parametrize("build", [_small_milp, _feasibility_query])
    def test_session(self, build, monkeypatch):
        direct = IncrementalSession(build()).solve()
        monkeypatch.setattr(scipy_backend, "_highs_core", None)
        session = IncrementalSession(build())
        assert session._impl is None
        assert self._outcome(session.solve()) == pytest.approx(
            self._outcome(direct)
        )

    def test_check_sat(self, monkeypatch):
        x = continuous("fs", 0, 10)
        b = binary("fsb")
        sat = Implies(BoolAtom(b), x >= 8) & BoolAtom(b)
        unsat = sat & (x <= 7)
        direct = [bool(check_sat(f)) for f in (sat, unsat)]
        monkeypatch.setattr(scipy_backend, "_highs_core", None)
        assert [bool(check_sat(f)) for f in (sat, unsat)] == direct == [True, False]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_programs_match_highs(self, seed, monkeypatch):
        """Mixed programs with LE and EQ rows: the ``milp`` route gives
        the vendored route's status and optimum."""
        rng = np.random.default_rng(200 + seed)
        ints = [integer(f"mi{k}", 0, 4) for k in range(3)]
        conts = [continuous(f"mc{k}", 0, 4) for k in range(2)]
        all_vars = ints + conts
        model = Model()
        for _ in range(3):
            coeffs = rng.integers(-2, 4, size=5)
            model.add_le(
                sum((int(coeffs[i]) * all_vars[i] for i in range(5)),
                    start=all_vars[0] * 0),
                int(rng.integers(2, 9)),
            )
        model.add_eq(ints[0] + ints[1] - conts[0], float(rng.integers(0, 4)))
        cost = rng.integers(-3, 4, size=5)
        model.set_objective(
            sum((int(cost[i]) * all_vars[i] for i in range(5)),
                start=all_vars[0] * 0)
        )
        direct = scipy_backend.solve(model)
        monkeypatch.setattr(scipy_backend, "_highs_core", None)
        fallback = scipy_backend.solve(model)
        assert fallback.status is direct.status
        if direct.is_optimal:
            assert fallback.objective == pytest.approx(direct.objective, abs=1e-6)
            assert model.is_feasible(fallback.assignment)


class TestSolveErrorRetry:
    def test_error_is_retried_once_with_presolve_off(self, monkeypatch):
        """A HiGHS "Solve error" with presolve on is answered by one
        presolve-off run, whose result is returned."""
        run = (
            scipy_backend._run_highs
            if scipy_backend._highs_core is not None
            else scipy_backend._run_milp
        )
        expected = scipy_backend.solve(_small_milp())
        calls = []

        def flaky(form, time_limit, presolve):
            calls.append(presolve)
            if presolve:
                return SolveStatus.ERROR, None, "Solve error"
            return run(form, time_limit, presolve)

        monkeypatch.setattr(scipy_backend, "_run_highs", flaky)
        monkeypatch.setattr(scipy_backend, "_run_milp", flaky)
        result = scipy_backend.solve(_small_milp())
        assert calls == [True, False]
        assert (result.status, result.objective) == (
            expected.status,
            expected.objective,
        )
