"""MILP substrate: model container, encoders, the scipy/HiGHS backend
and the reference branch-and-bound that cross-checks it."""

from repro.solver.model import ConstraintSense, LinearConstraint, MatrixForm, Model
from repro.solver.result import SolveResult, SolveStatus
from repro.solver.encoder import FormulaEncoder, enforce
from repro.solver.feasibility import (
    BACKENDS,
    DEFAULT_BACKEND,
    SatResult,
    check_sat,
    get_backend,
    is_unsat,
)
from repro.solver import branch_bound, scipy_backend, simplex
from repro.solver.session import IncrementalSession
from repro.solver.diagnostics import find_iis, summarize_iis

__all__ = [
    "ConstraintSense",
    "LinearConstraint",
    "MatrixForm",
    "Model",
    "SolveResult",
    "SolveStatus",
    "FormulaEncoder",
    "enforce",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "SatResult",
    "check_sat",
    "get_backend",
    "is_unsat",
    "branch_bound",
    "scipy_backend",
    "simplex",
    "IncrementalSession",
    "find_iis",
    "summarize_iis",
]
