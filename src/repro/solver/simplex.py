"""Two-phase dense simplex for linear programs.

This is the LP engine behind the reference branch-and-bound
(:mod:`repro.solver.branch_bound`). It is deliberately a straightforward
tableau implementation (numpy dense, Dantzig pricing with a Bland
fallback for anti-cycling) — robust and easy to audit rather than fast.
Every solve the pipeline runs goes through the scipy/HiGHS backend;
this solver gives tests a route to the same answers that shares no code
with HiGHS.

The entry point is :func:`solve_lp`, which takes dense matrix data
(minimization, ``A_ub x <= b_ub``, ``A_eq x = b_eq``, box bounds) and
returns a status/solution pair.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.solver.result import SolveStatus

_TOL = 1e-9
_PIVOT_TOL = 1e-10


class LPSolution:
    """Raw LP outcome in the original variable space."""

    __slots__ = ("status", "x", "objective", "iterations")

    def __init__(
        self,
        status: SolveStatus,
        x: Optional[np.ndarray],
        objective: Optional[float],
        iterations: int,
    ) -> None:
        self.status = status
        self.x = x
        self.objective = objective
        self.iterations = iterations


def solve_lp(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    max_iterations: int = 20000,
) -> LPSolution:
    """Minimize ``c @ x`` subject to the given constraints and box bounds."""
    n = len(c)
    c = np.asarray(c, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)

    # ---- transform to standard form: all variables >= 0 -------------------
    # x_j = y_j + lb_j                      (finite lb)
    # x_j = ub_j - y_j                      (lb = -inf, finite ub)
    # x_j = y_j^+ - y_j^-                   (free)
    # finite ub with finite lb adds an explicit row  y_j <= ub_j - lb_j.
    col_map: List[Tuple[str, int]] = []  # per standard-form column: (kind, orig idx)
    shift = np.zeros(n)
    flip = np.zeros(n, dtype=bool)
    extra_rows: List[Tuple[int, float]] = []  # (orig var, upper bound on its y)

    for j in range(n):
        lb, ub = lower[j], upper[j]
        if math.isfinite(lb):
            shift[j] = lb
            col_map.append(("pos", j))
            if math.isfinite(ub):
                extra_rows.append((j, ub - lb))
        elif math.isfinite(ub):
            flip[j] = True
            shift[j] = ub
            col_map.append(("neg", j))
        else:
            col_map.append(("free+", j))
            col_map.append(("free-", j))

    n_std = len(col_map)

    def expand_row(row: np.ndarray) -> Tuple[np.ndarray, float]:
        """Rewrite a row over x into a row over y, returning rhs shift."""
        out = np.zeros(n_std)
        rhs_delta = 0.0
        for k, (kind, j) in enumerate(col_map):
            coef = row[j]
            if coef == 0.0:
                continue
            if kind == "pos":
                out[k] = coef
                rhs_delta += coef * shift[j]
            elif kind == "neg":
                out[k] = -coef
                rhs_delta += coef * shift[j]
            elif kind == "free+":
                out[k] = coef
            else:  # free-
                out[k] = -coef
        return out, rhs_delta

    rows: List[np.ndarray] = []
    rhs: List[float] = []
    senses: List[str] = []  # "le" or "eq"

    for i in range(a_ub.shape[0]):
        row, delta = expand_row(a_ub[i])
        rows.append(row)
        rhs.append(b_ub[i] - delta)
        senses.append("le")
    for i in range(a_eq.shape[0]):
        row, delta = expand_row(a_eq[i])
        rows.append(row)
        rhs.append(b_eq[i] - delta)
        senses.append("eq")
    for j, bound in extra_rows:
        row = np.zeros(n_std)
        row[[k for k, (kind, jj) in enumerate(col_map) if jj == j and kind == "pos"][0]] = 1.0
        rows.append(row)
        rhs.append(bound)
        senses.append("le")

    c_std, c_delta = expand_row(c)

    m = len(rows)
    if m == 0:
        # Unconstrained box problem: pick the bound minimizing each term.
        x = np.zeros(n)
        for j in range(n):
            if c[j] > 0:
                x[j] = lower[j]
            elif c[j] < 0:
                x[j] = upper[j]
            else:
                x[j] = lower[j] if math.isfinite(lower[j]) else 0.0
            if not math.isfinite(x[j]):
                return LPSolution(SolveStatus.UNBOUNDED, None, None, 0)
        return LPSolution(SolveStatus.OPTIMAL, x, float(c @ x), 0)

    a = np.vstack(rows)
    b = np.array(rhs, dtype=float)

    # Normalize so b >= 0.
    for i in range(m):
        if b[i] < 0:
            a[i] = -a[i]
            b[i] = -b[i]
            if senses[i] == "le":
                senses[i] = "ge"

    # Add slack/surplus and artificial variables.
    slack_cols = []
    art_cols = []
    columns = [a]
    for i in range(m):
        if senses[i] == "le":
            col = np.zeros((m, 1))
            col[i, 0] = 1.0
            columns.append(col)
            slack_cols.append(n_std + len(slack_cols) + len(art_cols))
        elif senses[i] == "ge":
            col = np.zeros((m, 1))
            col[i, 0] = -1.0
            columns.append(col)
            slack_cols.append(n_std + len(slack_cols) + len(art_cols))

    tableau_a = np.hstack(columns)
    total_real = tableau_a.shape[1]

    basis = [-1] * m
    # Slack columns with +1 can start in the basis for their row.
    col_idx = n_std
    for i in range(m):
        if senses[i] == "le":
            basis[i] = col_idx
            col_idx += 1
        elif senses[i] == "ge":
            col_idx += 1
    # Rows without a basic column get artificials.
    art_start = total_real
    art_needed = [i for i in range(m) if basis[i] == -1]
    if art_needed:
        art = np.zeros((m, len(art_needed)))
        for k, i in enumerate(art_needed):
            art[i, k] = 1.0
            basis[i] = art_start + k
            art_cols.append(art_start + k)
        tableau_a = np.hstack([tableau_a, art])

    total_cols = tableau_a.shape[1]
    iterations = 0

    def run_simplex(obj: np.ndarray, allowed: np.ndarray) -> Optional[str]:
        """Run simplex on the current (tableau_a, b, basis) in place.

        Returns None on optimality, "unbounded" if the objective is
        unbounded, "limit" on iteration exhaustion.
        """
        nonlocal iterations
        degenerate_streak = 0
        while True:
            if iterations >= max_iterations:
                return "limit"
            iterations += 1
            # Reduced costs: obj - obj_B @ B^-1 A. We maintain the tableau
            # explicitly: rows of tableau_a are already B^-1 A.
            cb = obj[basis]
            reduced = obj - cb @ tableau_a
            reduced[~allowed] = np.inf  # never enter disallowed columns
            use_bland = degenerate_streak > 50
            if use_bland:
                candidates = np.where(reduced < -_TOL)[0]
                if candidates.size == 0:
                    return None
                enter = int(candidates[0])
            else:
                enter = int(np.argmin(reduced))
                if reduced[enter] >= -_TOL:
                    return None
            col = tableau_a[:, enter]
            positive = col > _PIVOT_TOL
            if not positive.any():
                return "unbounded"
            ratios = np.full(m, np.inf)
            ratios[positive] = b[positive] / col[positive]
            if use_bland:
                best = np.min(ratios)
                ties = [
                    i
                    for i in range(m)
                    if positive[i] and ratios[i] <= best + _TOL
                ]
                leave = min(ties, key=lambda i: basis[i])
            else:
                leave = int(np.argmin(ratios))
            if b[leave] <= _TOL:
                degenerate_streak += 1
            else:
                degenerate_streak = 0
            _pivot(tableau_a, b, leave, enter)
            basis[leave] = enter

    allowed = np.ones(total_cols, dtype=bool)

    # ---- phase 1 -----------------------------------------------------------
    if art_cols:
        phase1_obj = np.zeros(total_cols)
        phase1_obj[art_cols] = 1.0
        outcome = run_simplex(phase1_obj, allowed)
        if outcome == "limit":
            return LPSolution(SolveStatus.ITERATION_LIMIT, None, None, iterations)
        art_value = sum(b[i] for i in range(m) if basis[i] in art_cols)
        if art_value > 1e-7:
            return LPSolution(SolveStatus.INFEASIBLE, None, None, iterations)
        # Drive remaining artificials out of the basis where possible.
        for i in range(m):
            if basis[i] in art_cols:
                pivot_col = None
                for j in range(total_real):
                    if abs(tableau_a[i, j]) > _PIVOT_TOL:
                        pivot_col = j
                        break
                if pivot_col is not None:
                    _pivot(tableau_a, b, i, pivot_col)
                    basis[i] = pivot_col
        allowed[art_cols] = False

    # ---- phase 2 --------------------------------------------------------------
    phase2_obj = np.zeros(total_cols)
    phase2_obj[:n_std] = c_std
    outcome = run_simplex(phase2_obj, allowed)
    if outcome == "unbounded":
        return LPSolution(SolveStatus.UNBOUNDED, None, None, iterations)
    if outcome == "limit":
        return LPSolution(SolveStatus.ITERATION_LIMIT, None, None, iterations)

    # ---- extract solution -------------------------------------------------------
    y = np.zeros(total_cols)
    for i in range(m):
        y[basis[i]] = b[i]
    x = np.zeros(n)
    for k, (kind, j) in enumerate(col_map):
        if kind == "pos":
            x[j] += y[k] + shift[j]
        elif kind == "neg":
            x[j] += shift[j] - y[k]
        elif kind == "free+":
            x[j] += y[k]
        else:
            x[j] -= y[k]
    return LPSolution(SolveStatus.OPTIMAL, x, float(c @ x), iterations)


def _pivot(a: np.ndarray, b: np.ndarray, row: int, col: int) -> None:
    """Gauss-Jordan pivot of the tableau on (row, col), in place."""
    pivot = a[row, col]
    a[row] /= pivot
    b[row] /= pivot
    for i in range(a.shape[0]):
        if i != row and abs(a[i, col]) > _PIVOT_TOL:
            factor = a[i, col]
            a[i] -= factor * a[row]
            b[i] -= factor * b[row]
            if b[i] < 0 and b[i] > -1e-11:
                b[i] = 0.0
