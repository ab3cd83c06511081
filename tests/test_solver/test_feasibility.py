"""Tests for the SAT/UNSAT oracle across backends."""

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.expr.constraints import BoolAtom, Implies, Or
from repro.expr.terms import binary, continuous, integer
from repro.runtime.job import JobSpec
from repro.runtime.keys import formula_key
from repro.solver import feasibility, scipy_backend
from repro.solver.feasibility import (
    BACKENDS,
    SatResult,
    check_sat,
    get_backend,
    is_unsat,
)


@pytest.fixture(params=sorted(BACKENDS))
def backend(request):
    return request.param


class TestOracle:
    def test_sat_both_backends(self, backend):
        x = continuous("x", 0, 10)
        result = check_sat((x >= 2) & (x <= 3), backend=backend)
        assert result
        assert 2 - 1e-6 <= result.assignment[x] <= 3 + 1e-6

    def test_unsat_both_backends(self, backend):
        x = continuous("x", 0, 10)
        assert is_unsat((x >= 5) & (x <= 4), backend=backend)

    def test_mixed_logic_both_backends(self, backend):
        b = binary("b")
        i = integer("i", 0, 5)
        f = Implies(BoolAtom(b), i >= 4) & BoolAtom(b) & (i <= 5)
        result = check_sat(f, backend=backend)
        assert result
        assert result.assignment[i] >= 4 - 1e-6

    def test_backends_agree_on_corpus(self):
        x = continuous("cx", 0, 8)
        y = continuous("cy", 0, 8)
        b = binary("cb")
        corpus = [
            (x >= 3) & (y >= 3) & (x + y <= 5),
            Or(x >= 7, y >= 7) & (x + y <= 6),
            Implies(BoolAtom(b), x.eq(8)) & BoolAtom(b),
            (x.eq(1) | x.eq(2)) & (x >= 1.5),
        ]
        for formula in corpus:
            verdicts = {
                name: bool(check_sat(formula, backend=name))
                for name in sorted(BACKENDS)
            }
            assert len(set(verdicts.values())) == 1, (formula, verdicts)


class TestPlumbing:
    def test_unknown_backend(self):
        with pytest.raises(SolverError, match="unknown solver backend"):
            get_backend("cplex")

    def test_sat_result_truthiness(self):
        assert SatResult(True)
        assert not SatResult(False)

    def test_witness_restricted_to_formula_vars(self):
        x = continuous("wx", 0, 10)
        y = continuous("wy", 0, 10)
        result = check_sat((x >= 9) | (y >= 9))
        for var in result.assignment:
            assert var in {x, y}



def _recording_highs(base, loads):
    """A HiGHS class whose instances log, per loaded model, whether it
    has an objective and which options were set on it."""

    class RecordingHighs(base):
        def __init__(self):
            super().__init__()
            self.options = {}

        def setOptionValue(self, name, value):
            self.options[name] = value
            return super().setOptionValue(name, value)

        def passModel(self, lp):
            loads.append((bool(np.any(lp.col_cost_)), self.options))
            return super().passModel(lp)

    return RecordingHighs


class TestRecordedRefinementQueries:
    """Every query two small explorations send to the oracle, replayed
    on the reference branch-and-bound (``backend="native"``): an
    independent route to each HiGHS verdict."""

    @pytest.fixture(scope="class")
    def recorded(self):
        queries = {}
        loads = []
        real = feasibility.check_sat

        def record(formula, *args, **kwargs):
            queries.setdefault(formula_key(formula), formula)
            return real(formula, *args, **kwargs)

        specs = [
            JobSpec(
                "epn",
                sizes={"left": 1, "right": 1, "apu": 0},
                engine={"use_isomorphism": False},
            ),
            # Stateless: the candidate MILPs go through solve_matrix too.
            JobSpec(
                "rpl",
                sizes={"n_a": 1, "n_b": 1},
                engine={"scenario": "complete", "incremental": False},
            ),
        ]
        core = scipy_backend._highs_core
        with pytest.MonkeyPatch.context() as mp:
            # The explorer's oracle misses re-enter check_sat through
            # this module global, so each recorded call is one solve.
            mp.setattr(feasibility, "check_sat", record)
            if core is not None:
                mp.setattr(core, "_Highs", _recording_highs(core._Highs, loads))
            for spec in specs:
                assert spec.make_explorer().explore().is_optimal
        return list(queries.values()), loads

    @pytest.fixture(scope="class")
    def answers(self, recorded):
        """Each recorded query with its answer on both routes."""
        queries, _ = recorded
        return [
            (formula, check_sat(formula), check_sat(formula, backend="native"))
            for formula in queries
        ]

    def test_scipy_and_native_verdicts_agree(self, answers):
        assert len(answers) > 50
        for formula, scipy_sat, native_sat in answers:
            assert bool(scipy_sat) == bool(native_sat), formula

    def test_sat_witnesses_satisfy_the_formula(self, answers):
        """Checked by evaluation alone, with no solver in the loop."""
        witnesses = [
            (formula, result.assignment)
            for formula, *results in answers
            for result in results
            if result
        ]
        assert witnesses
        for formula, assignment in witnesses:
            assert formula.evaluate(assignment), formula

    @pytest.mark.skipif(
        scipy_backend._highs_core is None, reason="needs scipy's vendored HiGHS"
    )
    def test_milp_fallback_verdicts_agree(self, answers, monkeypatch):
        """The ``scipy.optimize.milp`` route of the scipy backend, used
        where scipy vendors no HiGHS binding, gives the same verdicts."""
        monkeypatch.setattr(scipy_backend, "_highs_core", None)
        for formula, scipy_sat, _ in answers:
            fallback = check_sat(formula)
            assert bool(fallback) == bool(scipy_sat), formula
            if fallback:
                assert formula.evaluate(fallback.assignment), formula

    @pytest.mark.skipif(
        scipy_backend._highs_core is None, reason="needs scipy's vendored HiGHS"
    )
    def test_feasibility_jump_off_only_for_zero_objective(self, recorded):
        _, loads = recorded
        assert {has_objective for has_objective, _ in loads} == {True, False}
        for has_objective, options in loads:
            jump_off = options.get("mip_heuristic_run_feasibility_jump") is False
            assert jump_off is not has_objective, options
