"""Tests for the persistent MILP session (incremental solve path).

The contract under test: an :class:`IncrementalSession` bound to a
growing model returns *exactly* what a stateless solve of the same
model returns, at every step, while taking the cheap append path —
and solving through a session leaves the model's mathematical content
(hence its oracle-cache key) untouched.
"""

import pytest

from repro.expr.terms import binary, continuous
from repro.runtime.keys import model_key
from repro.solver import scipy_backend
from repro.solver.model import Model
from repro.solver.session import IncrementalSession
from repro.solver.result import SolveStatus


def _knapsack_model() -> Model:
    """Small maximization MILP that stays feasible under the cuts below."""
    model = Model("session-test")
    x = [model.new_binary(f"x{i}") for i in range(5)]
    values = [5.0, 4.0, 3.0, 2.0, 1.0]
    weights = [2.0, 3.0, 1.0, 4.0, 2.0]
    model.add_le(sum((w * v for w, v in zip(weights, x)), start=0 * x[0]), 7.0)
    model.set_objective(
        sum((c * v for c, v in zip(values, x)), start=0 * x[0]), minimize=False
    )
    return model


def _grow(model: Model, step: int) -> None:
    """Append one no-good cut excluding the current optimum's support."""
    x = model.variables
    model.add_le(sum((v for v in x[: 3 + (step % 2)]), start=0 * x[0]), 2.0)


def _grow_ge(model: Model, step: int) -> None:
    """:func:`_grow`'s cut as a GE row: ``-sum(x) >= -2``."""
    x = model.variables
    model.add_ge(-sum((v for v in x[: 3 + (step % 2)]), start=0 * x[0]), -2.0)


def _grow_eq(model: Model, step: int) -> None:
    """Fix one item out of the knapsack with an EQ row."""
    model.add_eq(model.variables[step].to_expr(), 0.0)


def _grow_new_variable(model: Model, step: int) -> None:
    """Append a new binary tied to an item by an EQ row, in the same
    batch as :func:`_grow`'s LE cut."""
    x = model.variables
    selector = model.new_binary(f"s{step}")
    model.add_eq(selector - x[step], 0.0)
    _grow(model, step)


def _fingerprint(result):
    assignment = {var.name: value for var, value in result.assignment.items()}
    return result.status, result.objective, assignment


#: Session routes under test. ``scipy-fallback`` is the scipy backend
#: without the vendored HiGHS binding (as on scipy < 1.15), where each
#: solve is a fresh ``scipy.optimize.milp`` run.
ROUTES = ["scipy", "scipy-fallback"]


@pytest.fixture
def route(request, monkeypatch):
    """The route parameter, with the vendored binding hidden for
    ``scipy-fallback``."""
    if request.param == "scipy-fallback":
        monkeypatch.setattr(scipy_backend, "_highs_core", None)
    return request.param


#: ``(route, growth)`` inputs of :class:`TestSessionEquality`: every
#: route under LE cuts, then under GE, EQ and new-variable appends.
EQUALITY_CASES = [pytest.param(route, _grow, id=route) for route in ROUTES] + [
    pytest.param(route, grow, id=f"{route}-{name}")
    for name, grow in (
        ("ge", _grow_ge),
        ("eq", _grow_eq),
        ("new-variable", _grow_new_variable),
    )
    for route in ROUTES
]


@pytest.mark.parametrize("route, grow", EQUALITY_CASES, indirect=["route"])
class TestSessionEquality:
    def test_matches_stateless_solve_across_appends(self, route, grow):
        model = _knapsack_model()
        session = IncrementalSession(model)
        for step in range(4):
            incremental = session.solve()
            scratch = scipy_backend.solve(model)
            assert incremental.status is SolveStatus.OPTIMAL
            assert _fingerprint(incremental) == _fingerprint(scratch)
            grow(model, step)

    def test_append_path_taken(self, route, grow):
        model = _knapsack_model()
        session = IncrementalSession(model)
        session.solve()
        for step in range(3):
            grow(model, step)
            session.solve()
        if session._impl is None:
            # The milp fallback rebuilds on every solve.
            assert (session.appends, session.rebuilds) == (0, 4)
        else:
            assert session.appends == 3
            assert session.rebuilds <= 1  # only the initial load

    def test_model_key_unchanged_by_session_reuse(self, route, grow):
        model = _knapsack_model()
        before = model_key(model, backend="scipy")
        session = IncrementalSession(model)
        session.solve()
        session.solve()
        assert model_key(model, backend="scipy") == before
        grow(model, 0)
        grown = model_key(model, backend="scipy")
        session.solve()
        assert model_key(model, backend="scipy") == grown


class TestSessionAsSolver:
    def test_routes_other_models_through_stateless_backend(self):
        bound = _knapsack_model()
        other = _knapsack_model()
        solve = IncrementalSession(bound).as_solver()
        assert _fingerprint(solve(other)) == _fingerprint(
            scipy_backend.solve(other)
        )


class TestObjectivePlateau:
    @pytest.mark.parametrize("route", ROUTES, indirect=True)
    def test_non_binding_append_keeps_exact_optimum(self, route):
        """Appending a redundant row exercises the early-exit target path
        (scipy sessions stop at the first plateau incumbent): the
        returned optimum must still match the stateless solve."""
        model = _knapsack_model()
        session = IncrementalSession(model)
        first = session.solve()
        x = model.variables
        model.add_le(sum((v for v in x), start=0 * x[0]), float(len(x)))
        second = session.solve()
        scratch = scipy_backend.solve(model)
        assert second.status is SolveStatus.OPTIMAL
        assert second.objective == pytest.approx(first.objective, abs=1e-5)
        assert second.objective == pytest.approx(scratch.objective, abs=1e-5)
        if session._impl is None:
            assert (session.appends, session.rebuilds) == (0, 2)
        else:
            assert session.appends == 1


class TestUnbounded:
    @pytest.mark.parametrize("route", ROUTES, indirect=True)
    def test_unbounded_model_reported_as_stateless(self, route):
        x = continuous("ux", 0)
        b = binary("ub")
        model = Model()
        model.add_ge(x + b, 1)
        model.set_objective(-x - b)
        result = IncrementalSession(model).solve()
        assert result.status is SolveStatus.UNBOUNDED
        assert scipy_backend.solve(model).status is SolveStatus.UNBOUNDED


class TestInfeasibleAppend:
    @pytest.mark.parametrize("route", ROUTES, indirect=True)
    def test_append_to_infeasibility(self, route):
        model = _knapsack_model()
        session = IncrementalSession(model)
        assert session.solve().status is SolveStatus.OPTIMAL
        x = model.variables
        model.add_ge(sum((v for v in x), start=0 * x[0]), 1.0)
        model.add_le(sum((v for v in x), start=0 * x[0]), 0.0)
        assert session.solve().status is SolveStatus.INFEASIBLE
