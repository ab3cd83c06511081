"""Tests for infeasibility diagnosis."""

import pytest

from repro.exceptions import SolverError
from repro.expr.terms import continuous
from repro.solver import scipy_backend
from repro.solver.diagnostics import (
    diagnose_infeasible_exploration,
    find_iis,
    summarize_iis,
)
from repro.solver.model import Model


def _conflicting_model():
    x = continuous("dx", 0, 100)
    y = continuous("dy", 0, 100)
    m = Model("conflict")
    m.add_le(x.to_expr(), 3, name="x-cap")
    m.add_ge(x.to_expr(), 5, name="x-floor")       # conflicts with x-cap
    m.add_le(y.to_expr(), 50, name="y-cap")        # irrelevant
    m.add_le(x + y, 80, name="xy-cap")             # irrelevant
    return m


class TestFindIIS:
    def test_minimal_conflict_found(self):
        iis = find_iis(_conflicting_model())
        names = {c.name for c in iis}
        assert names == {"x-cap", "x-floor"}

    def test_feasible_model_rejected(self):
        x = continuous("fx", 0, 10)
        m = Model()
        m.add_le(x.to_expr(), 5)
        with pytest.raises(SolverError, match="feasible"):
            find_iis(m)

    def test_works_without_vendored_highs(self, monkeypatch):
        monkeypatch.setattr(scipy_backend, "_highs_core", None)
        iis = find_iis(_conflicting_model())
        assert {c.name for c in iis} == {"x-cap", "x-floor"}

    def test_iis_is_irreducible(self):
        iis = find_iis(_conflicting_model())
        # Removing any single member makes the rest feasible.
        from repro.solver.diagnostics import _is_feasible

        for skip in range(len(iis)):
            probe = Model("check")
            for i, constraint in enumerate(iis):
                if i != skip:
                    probe.add_constraint(constraint)
            assert _is_feasible(probe)


class TestSummaries:
    def test_summary_mentions_names(self):
        iis = find_iis(_conflicting_model())
        text = summarize_iis(iis)
        assert "x-cap" in text
        assert "x-floor" in text

    def test_exploration_diagnosis(self):
        from repro.casestudies import epn

        # Loss budget no implementation can meet: candidate MILP stays
        # feasible (budget is system-level) so instead use a demand no
        # generator can carry.
        mt, spec = epn.build_problem(1, 0, 0, load_demand=50.0)
        text = diagnose_infeasible_exploration(mt, spec)
        assert "conflict set" in text
