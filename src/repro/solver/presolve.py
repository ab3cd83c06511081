"""Presolve for the native MILP backend.

Implements the classic cheap reductions real MILP engines apply before
branch and bound:

* **activity-based bound tightening** — for every row, each variable's
  bound is tightened against the row's residual activity, with
  floor/ceil rounding for integral variables;
* **redundant-row elimination** — inequality rows whose maximum activity
  already satisfies the right-hand side are dropped;
* **infeasibility detection** — rows whose minimum activity exceeds the
  right-hand side, or variables whose bounds cross, prove infeasibility
  without any search.

Operates on the native backend's dense copy of a model,
:class:`repro.solver.branch_bound.DenseForm`, in place-free style:
returns a new form plus a status. Column space is preserved (fixed
variables simply get collapsed bounds), so solutions need no remapping.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.solver.branch_bound import DenseForm

_TOL = 1e-9


class PresolveStatus(enum.Enum):
    """Outcome class of a presolve pass."""

    REDUCED = "reduced"
    UNCHANGED = "unchanged"
    INFEASIBLE = "infeasible"


class PresolveResult:
    """Reduced matrix form plus reduction statistics."""

    __slots__ = ("status", "form", "rounds", "rows_removed", "bounds_tightened")

    def __init__(
        self,
        status: PresolveStatus,
        form: Optional[DenseForm],
        rounds: int = 0,
        rows_removed: int = 0,
        bounds_tightened: int = 0,
    ) -> None:
        self.status = status
        self.form = form
        self.rounds = rounds
        self.rows_removed = rows_removed
        self.bounds_tightened = bounds_tightened

    def __repr__(self) -> str:
        return (
            f"PresolveResult({self.status.value}, rounds={self.rounds}, "
            f"rows_removed={self.rows_removed}, "
            f"tightened={self.bounds_tightened})"
        )


def _row_activity_bounds(
    row: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> Tuple[float, float]:
    """Minimum and maximum of ``row @ x`` over the box."""
    pos = row > 0
    neg = row < 0
    min_act = row[pos] @ lower[pos] + row[neg] @ upper[neg]
    max_act = row[pos] @ upper[pos] + row[neg] @ lower[neg]
    return float(min_act), float(max_act)


def _tighten_from_row(
    row: np.ndarray,
    rhs: float,
    lower: np.ndarray,
    upper: np.ndarray,
    integrality: np.ndarray,
) -> Tuple[int, bool]:
    """Tighten bounds against one ``row @ x <= rhs``. Returns
    (#bounds tightened, feasible)."""
    tightened = 0
    support = np.nonzero(row)[0]
    min_act, _ = _row_activity_bounds(row, lower, upper)
    if not math.isfinite(min_act):
        return 0, True
    if min_act > rhs + 1e-7:
        return 0, False
    for j in support:
        coef = row[j]
        # Residual minimum activity excluding j.
        term_min = coef * (lower[j] if coef > 0 else upper[j])
        residual = min_act - term_min
        if coef > 0:
            new_upper = (rhs - residual) / coef
            if integrality[j]:
                new_upper = math.floor(new_upper + 1e-7)
            if new_upper < upper[j] - 1e-9:
                upper[j] = new_upper
                tightened += 1
        else:
            new_lower = (rhs - residual) / coef
            if integrality[j]:
                new_lower = math.ceil(new_lower - 1e-7)
            if new_lower > lower[j] + 1e-9:
                lower[j] = new_lower
                tightened += 1
        if lower[j] > upper[j] + 1e-9:
            return tightened, False
    return tightened, True


def presolve(form: DenseForm, max_rounds: int = 10) -> PresolveResult:
    """Apply bound tightening and row elimination to a matrix form."""
    lower = form.lower.copy()
    upper = form.upper.copy()
    integrality = form.integrality
    a_ub = form.a_ub.copy()
    b_ub = form.b_ub.copy()
    a_eq = form.a_eq
    b_eq = form.b_eq

    total_tightened = 0
    rounds = 0
    for _ in range(max_rounds):
        rounds += 1
        changed = 0
        for i in range(a_ub.shape[0]):
            gained, feasible = _tighten_from_row(
                a_ub[i], b_ub[i], lower, upper, integrality
            )
            changed += gained
            if not feasible:
                return PresolveResult(PresolveStatus.INFEASIBLE, None, rounds)
        # Equality rows act as two inequalities.
        for i in range(a_eq.shape[0]):
            gained, feasible = _tighten_from_row(
                a_eq[i], b_eq[i], lower, upper, integrality
            )
            changed += gained
            if not feasible:
                return PresolveResult(PresolveStatus.INFEASIBLE, None, rounds)
            gained, feasible = _tighten_from_row(
                -a_eq[i], -b_eq[i], lower, upper, integrality
            )
            changed += gained
            if not feasible:
                return PresolveResult(PresolveStatus.INFEASIBLE, None, rounds)
        total_tightened += changed
        if changed == 0:
            break

    # Drop redundant inequality rows.
    keep = []
    for i in range(a_ub.shape[0]):
        min_act, max_act = _row_activity_bounds(a_ub[i], lower, upper)
        if min_act > b_ub[i] + 1e-7:
            return PresolveResult(PresolveStatus.INFEASIBLE, None, rounds)
        if max_act > b_ub[i] + _TOL:
            keep.append(i)
    rows_removed = a_ub.shape[0] - len(keep)
    if rows_removed:
        a_ub = a_ub[keep]
        b_ub = b_ub[keep]

    status = (
        PresolveStatus.REDUCED
        if (total_tightened or rows_removed)
        else PresolveStatus.UNCHANGED
    )
    reduced = form._replace(a_ub=a_ub, b_ub=b_ub, lower=lower, upper=upper)
    return PresolveResult(
        status, reduced, rounds, rows_removed, total_tightened
    )
