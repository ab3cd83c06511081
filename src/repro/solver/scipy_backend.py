"""MILP backend on the HiGHS solver that scipy vendors.

This is the default backend — the stand-in for the Gurobi interface the
paper used. It consumes the same :class:`repro.solver.model.MatrixForm`
as the native branch-and-bound backend, so the two are interchangeable.

:func:`highs_lp` is the one place a :class:`MatrixForm` becomes a HiGHS
model; :func:`solve_matrix` and the persistent session
(:mod:`repro.solver.session`) both load models through it. Each
:func:`solve_matrix` call runs a fresh ``scipy.optimize._highspy``
instance, so there is no module-level solver state to share between
sweep or serve workers.

A form whose objective is identically zero is a feasibility query: the
refinement checks of Problem 3, contract consistency checks and IIS
probes. For those HiGHS's feasibility-jump primal heuristic is switched
off. It runs before the root LP and costs 8-14 ms on a query that the
LP itself settles in under 1 ms; the verdict does not depend on it.
Models with an objective keep HiGHS defaults, so the optimum HiGHS
picks among ties — and with it every exploration trajectory — stays
as it was.

On a scipy without the vendored binding (scipy < 1.15) the backend
falls back to :func:`scipy.optimize.milp` with its default options.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.solver.model import MatrixForm, Model
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


def highs_lp(form: MatrixForm):
    """The HiGHS model of ``form``: ``A_ub`` rows first, then ``A_eq``.

    The constraint matrix goes in row-wise from one CSR conversion
    (``np.nonzero`` walks the dense rows in order); HiGHS stores it
    column-wise either way.
    """
    core = _highs_core
    n = form.num_variables
    n_ub = form.a_ub.shape[0]
    a = np.vstack([form.a_ub, form.a_eq])
    m = a.shape[0]
    row, col = np.nonzero(a)
    lp = core.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = m
    lp.col_cost_ = np.asarray(form.objective, dtype=float)
    lp.col_lower_ = np.asarray(form.lower, dtype=float)
    lp.col_upper_ = np.asarray(form.upper, dtype=float)
    lp.row_lower_ = np.concatenate([np.full(n_ub, -core.kHighsInf), form.b_eq])
    lp.row_upper_ = np.concatenate([form.b_ub, form.b_eq])
    lp.integrality_ = [
        core.HighsVarType.kInteger if flag else core.HighsVarType.kContinuous
        for flag in form.integrality
    ]
    matrix = lp.a_matrix_
    matrix.format_ = core.MatrixFormat.kRowwise
    matrix.num_col_ = n
    matrix.num_row_ = m
    matrix.start_ = np.searchsorted(row, np.arange(m + 1)).astype(np.int32)
    matrix.index_ = col.astype(np.int32)
    matrix.value_ = a[row, col].astype(float)
    return lp


def solve_matrix(form: MatrixForm, time_limit: Optional[float] = None) -> SolveResult:
    """Solve a MILP in matrix form with HiGHS. Minimization."""
    if form.num_variables == 0:
        return _solve_empty(form)
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
        assignment = {var: float(x[i]) for i, var in enumerate(form.variables)}
        objective = float(form.objective @ x) + form.objective_constant
        return SolveResult(status, objective, assignment, message=message)
    return SolveResult(status, message=message)


def _run_highs(form: MatrixForm, time_limit: Optional[float], presolve: bool) -> _Run:
    """One run of a fresh vendored HiGHS instance on ``form``."""
    core = _highs_core
    h = core._Highs()
    h.setOptionValue("output_flag", False)
    if time_limit is not None:
        h.setOptionValue("time_limit", float(time_limit))
    if not presolve:
        h.setOptionValue("presolve", "off")
    if not np.any(form.objective):
        # A feasibility query. HiGHS builds without the option answer
        # kError, which leaves the defaults in place.
        h.setOptionValue("mip_heuristic_run_feasibility_jump", False)
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
    constraints = []
    if form.a_ub.shape[0]:
        constraints.append(LinearConstraint(form.a_ub, -np.inf, form.b_ub))
    if form.a_eq.shape[0]:
        constraints.append(LinearConstraint(form.a_eq, form.b_eq, form.b_eq))
    options = {}
    if time_limit is not None:
        options["time_limit"] = time_limit
    if not presolve:
        options["presolve"] = False
    result = milp(
        c=form.objective,
        constraints=constraints or None,
        integrality=form.integrality,
        bounds=Bounds(form.lower, form.upper),
        options=options or None,
    )
    status = _STATUS_MAP.get(result.status, SolveStatus.ERROR)
    return status, result.x, getattr(result, "message", "")


def _solve_empty(form: MatrixForm) -> SolveResult:
    """Decide a variable-free model: every constraint row is 0 <= b / 0 = b."""
    feasible = bool(np.all(form.b_ub >= -1e-9)) and bool(
        np.all(np.abs(form.b_eq) <= 1e-9)
    )
    if feasible:
        return SolveResult(SolveStatus.OPTIMAL, form.objective_constant, {})
    return SolveResult(SolveStatus.INFEASIBLE)


def solve(model: Model, time_limit: Optional[float] = None) -> SolveResult:
    """Solve a :class:`Model` with the scipy/HiGHS backend."""
    result = solve_matrix(model.to_matrix_form(), time_limit=time_limit)
    if result.is_optimal and not model.minimize and result.objective is not None:
        result.objective = -result.objective
    return result
