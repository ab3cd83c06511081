"""Tests for the SAT/UNSAT oracle across backends."""

from types import SimpleNamespace

import numpy as np
import pytest

import repro.explore.engine as engine
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
from repro.solver.result import SolveResult, SolveStatus
from tests.test_explore.conftest import ScratchSession


@pytest.fixture(params=sorted(BACKENDS))
def backend(request):
    return request.param


class TestOracle:
    def test_sat_both_backends(self, backend):
        x = continuous("x", 0, 10)
        result = check_sat((x >= 2) & (x <= 3), backend=backend)
        assert result
        assert 2 - 1e-6 <= result.assignment[x] <= 3 + 1e-6

    def test_incumbent_of_a_cut_short_search_is_a_witness(self, monkeypatch):
        x = integer("w", 0, 5)
        witness = {x: 3.0}
        monkeypatch.setitem(
            BACKENDS,
            "native",
            lambda model: SolveResult(
                SolveStatus.ITERATION_LIMIT, 0.0, witness, 7
            ),
        )
        result = check_sat((x >= 2) & (x <= 4), backend="native")
        assert result.satisfiable and result.assignment == witness

    def test_cut_short_search_without_incumbent_is_an_error(self, monkeypatch):
        x = integer("w", 0, 5)
        monkeypatch.setitem(
            BACKENDS,
            "native",
            lambda model: SolveResult(SolveStatus.ITERATION_LIMIT, iterations=7),
        )
        with pytest.raises(SolverError):
            check_sat((x >= 2) & (x <= 4), backend="native")

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



def _recording_highs(base, instances):
    """A HiGHS class that logs, per instance, the options set on it,
    whether each loaded model has an objective, and whether rows were
    appended."""

    class RecordingHighs(base):
        def __init__(self):
            super().__init__()
            self.log = SimpleNamespace(options={}, loads=[], appended=False)
            instances.append(self.log)

        def setOptionValue(self, name, value):
            self.log.options[name] = value
            return super().setOptionValue(name, value)

        def passModel(self, lp):
            self.log.loads.append(bool(np.any(lp.col_cost_)))
            return super().passModel(lp)

        def addRows(self, *args):
            self.log.appended = True
            return super().addRows(*args)

    return RecordingHighs


class TestRecordedRefinementQueries:
    """Every query two small explorations send to the oracle, replayed
    on the reference branch-and-bound (``backend="native"``): an
    independent route to each HiGHS verdict."""

    @pytest.fixture(scope="class")
    def recorded(self):
        queries = {}
        instances = []
        real = feasibility.check_sat

        def record(formula, *args, **kwargs):
            queries.setdefault(formula_key(formula), formula)
            return real(formula, *args, **kwargs)

        session_spec = JobSpec(
            "epn",
            sizes={"left": 1, "right": 1, "apu": 0},
            engine={"use_isomorphism": False},
        )
        stateless_spec = JobSpec(
            "rpl", sizes={"n_a": 1, "n_b": 1}, engine={"scenario": "complete"}
        )
        core = scipy_backend._highs_core
        with pytest.MonkeyPatch.context() as mp:
            # The explorer's oracle misses re-enter check_sat through
            # this module global, so each recorded call is one solve.
            mp.setattr(feasibility, "check_sat", record)
            if core is not None:
                mp.setattr(core, "_Highs", _recording_highs(core._Highs, instances))
            assert session_spec.make_explorer().explore().is_optimal
            # Stateless: the candidate MILPs go through solve_matrix too.
            mp.setattr(engine, "IncrementalSession", ScratchSession)
            assert stateless_spec.make_explorer().explore().is_optimal
        return list(queries.values()), instances

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
    def test_feasibility_jump_off_for_every_load(self, recorded):
        _, instances = recorded
        loaded = [h for h in instances if h.loads]
        # The session's instance, stateless candidate MILPs (objective,
        # no appends) and refinement queries (zero objective).
        assert any(h.appended and all(h.loads) for h in loaded)
        assert any(not h.appended and all(h.loads) for h in loaded)
        assert any(not any(h.loads) for h in loaded)
        for h in loaded:
            assert h.options["mip_heuristic_run_feasibility_jump"] is False
            assert h.options["output_flag"] is False
