"""MILP backend on the HiGHS solver that scipy vendors.

This is the one MILP route of the pipeline — the stand-in for the
Gurobi interface the paper used for both the candidate MILP (Problem 2)
and the refinement queries (Problem 3). It consumes the same
:class:`repro.solver.model.MatrixForm` as the reference
branch-and-bound (:mod:`repro.solver.branch_bound`), which tests use to
cross-check its verdicts.

:func:`highs_lp` is the one place a :class:`MatrixForm` becomes a HiGHS
model; :func:`solve_matrix` and the persistent session
(:mod:`repro.solver.session`) both load models through it. Each
:func:`solve_matrix` call runs a fresh ``scipy.optimize._highspy``
instance, so there is no module-level solver state to share between
sweep or serve workers.

Every instance comes from :func:`new_highs`, with HiGHS's
feasibility-jump primal heuristic off. It runs before the root LP: 8-14
ms on a refinement query the LP settles in under 1 ms, and 5.9 of the
7.2 ms of EPN(1,0,0)'s first candidate MILP (HiGHS 1.12), where its
incumbent (44) is far from the optimum (20) the other heuristics find
anyway. Costs do not depend on it; which tied optimum HiGHS returns does.

On a scipy without the vendored binding (scipy < 1.15) the backend
falls back to :func:`scipy.optimize.milp` with its default options.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_array

from repro.solver.model import CsrRows, MatrixForm, Model, solve_empty
from repro.solver.result import SolveResult, SolveStatus

try:  # scipy >= 1.15 vendors the full highspy binding
    from scipy.optimize._highspy import _core as _highs_core
except ImportError:  # pragma: no cover - older scipy layouts
    _highs_core = None

#: scipy ``milp`` status codes, for the fallback route.
_STATUS_MAP = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ITERATION_LIMIT,  # iteration/time limit
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}

#: HiGHS model statuses mapped the way ``milp`` maps them; anything
#: else (including "unbounded or infeasible") is an error.
_HIGHS_STATUS = {
    "kOptimal": SolveStatus.OPTIMAL,
    "kTimeLimit": SolveStatus.ITERATION_LIMIT,
    "kIterationLimit": SolveStatus.ITERATION_LIMIT,
    "kInfeasible": SolveStatus.INFEASIBLE,
    "kModelError": SolveStatus.INFEASIBLE,
    "kUnbounded": SolveStatus.UNBOUNDED,
}

#: (status, solution vector or None, message) of one solver run.
_Run = Tuple[SolveStatus, Optional[Sequence[float]], str]


def _stacked_rows(form: MatrixForm) -> Tuple[CsrRows, np.ndarray, np.ndarray]:
    """Every row of ``form``, ``A_ub`` then ``A_eq``, with its bounds."""
    lower = np.concatenate([np.full(form.a_ub.shape[0], -np.inf), form.b_eq])
    upper = np.concatenate([form.b_ub, form.b_eq])
    return form.a_ub.stacked(form.a_eq), lower, upper


def highs_lp(form: MatrixForm):
    """The HiGHS model of ``form``: ``A_ub`` rows first, then ``A_eq``.

    The CSR arrays go in row-wise as they are; HiGHS stores the matrix
    column-wise either way.
    """
    core = _highs_core
    n = form.num_variables
    a, row_lower, row_upper = _stacked_rows(form)
    lp = core.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = a.shape[0]
    lp.col_cost_ = form.objective
    lp.col_lower_ = form.lower
    lp.col_upper_ = form.upper
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    lp.integrality_ = [
        core.HighsVarType.kInteger if flag else core.HighsVarType.kContinuous
        for flag in form.integrality
    ]
    matrix = lp.a_matrix_
    matrix.format_ = core.MatrixFormat.kRowwise
    matrix.num_col_ = n
    matrix.num_row_ = a.shape[0]
    matrix.start_ = a.indptr
    matrix.index_ = a.indices
    matrix.value_ = a.data
    return lp


def new_highs():
    """A fresh HiGHS instance with the options every solve shares (a HiGHS
    without the feasibility-jump option answers ``kError``, keeping it)."""
    h = _highs_core._Highs()
    h.setOptionValue("output_flag", False)
    h.setOptionValue("mip_heuristic_run_feasibility_jump", False)
    return h


def solve_matrix(form: MatrixForm, time_limit: Optional[float] = None) -> SolveResult:
    """Solve a MILP in matrix form with HiGHS. Minimization."""
    if form.num_variables == 0:
        return solve_empty(form)
    run = _run_highs if _highs_core is not None else _run_milp
    status, x, message = run(form, time_limit, True)
    if status is SolveStatus.ERROR:
        # HiGHS occasionally ends in "Solve error" on small integer
        # models its presolve mishandles (observed on scipy 1.17 /
        # equality-constrained MIPs). Presolve-off is exact, just
        # slower — retry once before surfacing the error.
        status, x, message = run(form, time_limit, False)
    if status is SolveStatus.OPTIMAL and x is not None:
        x = np.asarray(x, dtype=float)
        int_mask = form.integrality.astype(bool)
        x[int_mask] = np.round(x[int_mask])
        assignment = dict(zip(form.variables, x.tolist()))
        objective = float(form.objective @ x) + form.objective_constant
        return SolveResult(status, objective, assignment, message=message)
    return SolveResult(status, message=message)


def _run_highs(form: MatrixForm, time_limit: Optional[float], presolve: bool) -> _Run:
    """One run of a fresh vendored HiGHS instance on ``form``."""
    core = _highs_core
    h = new_highs()
    if time_limit is not None:
        h.setOptionValue("time_limit", float(time_limit))
    if not presolve:
        h.setOptionValue("presolve", "off")
    if h.passModel(highs_lp(form)) == core.HighsStatus.kError:
        model_status = core.HighsModelStatus.kModelError
    else:
        h.run()
        model_status = h.getModelStatus()
    status = _HIGHS_STATUS.get(model_status.name, SolveStatus.ERROR)
    x = h.getSolution().col_value if status is SolveStatus.OPTIMAL else None
    return status, x, h.modelStatusToString(model_status)


def _run_milp(form: MatrixForm, time_limit: Optional[float], presolve: bool) -> _Run:
    """One run of :func:`scipy.optimize.milp` on ``form``."""
    a, lower, upper = _stacked_rows(form)
    constraints = None
    if a.shape[0]:
        matrix = csr_array((a.data, a.indices, a.indptr), shape=a.shape)
        constraints = LinearConstraint(matrix, lower, upper)
    options = {}
    if time_limit is not None:
        options["time_limit"] = time_limit
    if not presolve:
        options["presolve"] = False
    result = milp(
        c=form.objective,
        constraints=constraints,
        integrality=form.integrality,
        bounds=Bounds(form.lower, form.upper),
        options=options or None,
    )
    status = _STATUS_MAP.get(result.status, SolveStatus.ERROR)
    return status, result.x, getattr(result, "message", "")


def solve(model: Model, time_limit: Optional[float] = None) -> SolveResult:
    """Solve a :class:`Model` with the scipy/HiGHS backend."""
    result = solve_matrix(model.to_matrix_form(), time_limit=time_limit)
    if result.is_optimal and not model.minimize and result.objective is not None:
        result.objective = -result.objective
    return result
