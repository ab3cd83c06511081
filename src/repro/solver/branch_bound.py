"""Reference branch-and-bound MILP solver over the dense-tableau simplex.

Best-bound search with most-fractional branching. Like the simplex it
sits on, this solver favours clarity and auditability over speed: it is
stateless, rebuilds each node's LP from scratch, and exists as an
independent route to the answers the scipy/HiGHS backend gives.
:func:`repro.solver.feasibility.check_sat` reaches it through its entry
in :data:`repro.solver.feasibility.BACKENDS`, so tests can cross-check
refinement verdicts without trusting HiGHS; exploration never runs on
it.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import List, Optional, Tuple

import numpy as np

from repro.solver.model import MatrixForm, Model, solve_empty
from repro.solver.result import SolveResult, SolveStatus
from repro.solver.simplex import solve_lp

_INT_TOL = 1e-6


def solve_matrix(
    form: MatrixForm, max_nodes: int = 200000, gap_tol: float = 1e-9
) -> SolveResult:
    """Solve a MILP given in matrix form. Minimization.

    The form's CSR blocks are expanded to dense arrays once, here, for
    the dense-tableau simplex.
    """
    if form.num_variables == 0:
        return solve_empty(form)
    a_ub, a_eq = form.a_ub.toarray(), form.a_eq.toarray()
    int_mask = form.integrality.astype(bool)
    incumbent_x: Optional[np.ndarray] = None
    incumbent_obj = math.inf

    counter = itertools.count()
    # Heap entries: (parent bound, tiebreak, node lower, node upper).
    heap: List[Tuple[float, int, np.ndarray, np.ndarray]] = [
        (-math.inf, next(counter), form.lower.copy(), form.upper.copy())
    ]
    nodes_explored = 0
    hit_limit = False

    while heap:
        bound, _, lower, upper = heapq.heappop(heap)
        if bound >= incumbent_obj - gap_tol:
            continue
        if nodes_explored >= max_nodes:
            hit_limit = True
            break
        nodes_explored += 1

        lp = solve_lp(
            form.objective, a_ub, form.b_ub, a_eq, form.b_eq, lower, upper
        )
        if lp.status is SolveStatus.INFEASIBLE:
            continue
        if lp.status is SolveStatus.UNBOUNDED:
            # An unbounded relaxation at the root means the MILP is
            # unbounded (integrality cannot bound a linear objective from
            # below when the LP cone is unbounded in a descent direction).
            return SolveResult(
                SolveStatus.UNBOUNDED, iterations=nodes_explored,
                message="LP relaxation unbounded",
            )
        if lp.status is SolveStatus.ITERATION_LIMIT:
            hit_limit = True
            continue

        assert lp.x is not None and lp.objective is not None
        if lp.objective >= incumbent_obj - gap_tol:
            continue

        branch_var = _most_fractional(lp.x, int_mask)
        if branch_var is None:
            # Integral solution: new incumbent.
            incumbent_obj = lp.objective
            incumbent_x = lp.x.copy()
            incumbent_x[int_mask] = np.round(incumbent_x[int_mask])
            continue

        floor_val = math.floor(lp.x[branch_var] + _INT_TOL)
        down = upper.copy()
        down[branch_var] = min(down[branch_var], floor_val)
        if lower[branch_var] <= down[branch_var]:
            heapq.heappush(heap, (lp.objective, next(counter), lower.copy(), down))
        up = lower.copy()
        up[branch_var] = max(up[branch_var], floor_val + 1)
        if up[branch_var] <= upper[branch_var]:
            heapq.heappush(heap, (lp.objective, next(counter), up, upper.copy()))

    if incumbent_x is not None:
        assignment = {
            var: float(incumbent_x[i]) for i, var in enumerate(form.variables)
        }
        return SolveResult(
            SolveStatus.OPTIMAL,
            incumbent_obj + form.objective_constant,
            assignment,
            nodes_explored,
        )
    if hit_limit:
        return SolveResult(
            SolveStatus.ITERATION_LIMIT,
            iterations=nodes_explored,
            message="node limit reached without incumbent",
        )
    return SolveResult(SolveStatus.INFEASIBLE, iterations=nodes_explored)


def _most_fractional(x: np.ndarray, int_mask: np.ndarray) -> Optional[int]:
    """Index of the integral variable farthest from an integer, or None."""
    frac = np.abs(x - np.round(x))
    frac[~int_mask] = 0.0
    j = int(np.argmax(frac))
    if frac[j] <= _INT_TOL:
        return None
    return j


def solve(model: Model, max_nodes: int = 200000) -> SolveResult:
    """Solve a :class:`Model` with the reference branch-and-bound."""
    result = solve_matrix(model.to_matrix_form(), max_nodes=max_nodes)
    if result.is_optimal and not model.minimize and result.objective is not None:
        result.objective = -result.objective
    return result
