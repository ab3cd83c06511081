"""Native branch-and-bound MILP solver over the dense-tableau simplex.

Best-bound search with pseudo-cost (falling back to most-fractional)
branching. Like the simplex it sits on, this backend favours clarity and
auditability; it is exercised throughout the test suite and serves as
the Gurobi stand-in when scipy's HiGHS backend is not wanted.

The solver accepts an optional :class:`WarmStart` carrying state across
closely-related solves (the exploration loop re-solves the same model
with a few appended cut rows per iteration):

* a pool of previously-found integer solutions — the cheapest one still
  feasible under the new rows seeds the incumbent, so best-bound search
  prunes from the first node instead of cold-starting;
* per-variable pseudo-costs (average LP-bound degradation per unit of
  fractionality) that carry the learned branching order forward;
* the root LP basis, replayed as a preferred-column hint to the simplex
  (see ``prefer`` in :func:`repro.solver.simplex.solve_lp`).

Passing ``warm`` never changes the mathematical result — only the
search order and how fast optimality is proved.

A ``deadline`` (a :func:`time.monotonic` instant) bounds the search in
time: once it has passed, the solve stops before its next node with
``ITERATION_LIMIT``, so a caller with a time budget can fail by time
but never hang.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.expr.terms import Var
from repro.solver.model import MatrixForm, Model, solve_empty
from repro.solver.result import SolveResult, SolveStatus
from repro.solver.simplex import solve_lp

_INT_TOL = 1e-6
_FEAS_TOL = 1e-7


class DenseForm(NamedTuple):
    """A :class:`MatrixForm` with ``a_ub``/``a_eq`` as dense arrays, for
    the dense-tableau simplex and presolve; :func:`solve_matrix` makes
    one per solve."""

    variables: List[Var]
    objective: np.ndarray
    objective_constant: float
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray

    @property
    def num_variables(self) -> int:
        return len(self.variables)


def densify(form: MatrixForm) -> DenseForm:
    """``form`` with its CSR blocks expanded to dense arrays."""
    fields = form._asdict()
    fields.update(a_ub=form.a_ub.toarray(), a_eq=form.a_eq.toarray())
    return DenseForm(**fields)


class WarmStart:
    """Mutable cross-solve state for the native backend.

    Owned by one :class:`repro.solver.session.IncrementalSession` and
    therefore tied to one append-only model: variable *indices* are
    stable across solves, which is what the pseudo-cost maps and the
    basis mask rely on.
    """

    __slots__ = ("pool", "pseudo_down", "pseudo_up", "basis", "max_pool")

    def __init__(self, max_pool: int = 8) -> None:
        #: Integer solutions from previous solves, cheapest first, as
        #: (objective-vector value at solve time, x) pairs. Candidates
        #: are re-validated against the current rows before seeding.
        self.pool: List[np.ndarray] = []
        #: var index -> (count, summed per-unit LP bound degradation).
        self.pseudo_down: Dict[int, Tuple[int, float]] = {}
        self.pseudo_up: Dict[int, Tuple[int, float]] = {}
        #: Boolean mask of original variables basic at the last root LP.
        self.basis: Optional[np.ndarray] = None
        self.max_pool = max_pool

    def note_solution(self, x: np.ndarray) -> None:
        """Remember an integer-feasible point for future incumbent seeding."""
        for existing in self.pool:
            if existing.shape == x.shape and np.allclose(existing, x):
                return
        self.pool.append(x.copy())
        if len(self.pool) > self.max_pool:
            self.pool.pop(0)

    def note_branch(self, var: int, direction: int, gain: float) -> None:
        """Record one observed LP degradation for pseudo-cost branching."""
        table = self.pseudo_down if direction < 0 else self.pseudo_up
        count, total = table.get(var, (0, 0.0))
        table[var] = (count + 1, total + max(gain, 0.0))

    def _mean(self, table: Dict[int, Tuple[int, float]], var: int) -> Optional[float]:
        entry = table.get(var)
        if entry is None or entry[0] == 0:
            return None
        return entry[1] / entry[0]


def _seed_incumbent(
    form: DenseForm, warm: WarmStart
) -> Tuple[Optional[np.ndarray], float]:
    """Cheapest pool solution still feasible for the (grown) form.

    Pool entries from earlier solves may be shorter than the current
    variable vector (cuts introduce selector binaries); they are
    zero-padded, which matches the "not selected" semantics of appended
    encoder variables and is then validated like any other point.
    """
    n = form.num_variables
    best_x: Optional[np.ndarray] = None
    best_obj = math.inf
    for pooled in warm.pool:
        if pooled.shape[0] > n:
            continue
        x = np.zeros(n)
        x[: pooled.shape[0]] = pooled
        if not _is_feasible(form, x):
            continue
        obj = float(form.objective @ x)
        if obj < best_obj:
            best_obj = obj
            best_x = x
    return best_x, best_obj


def _is_feasible(form: DenseForm, x: np.ndarray) -> bool:
    """Validate a full point against bounds, integrality and all rows."""
    if np.any(x < form.lower - _FEAS_TOL) or np.any(x > form.upper + _FEAS_TOL):
        return False
    int_mask = form.integrality.astype(bool)
    if np.any(np.abs(x[int_mask] - np.round(x[int_mask])) > _INT_TOL):
        return False
    if form.a_ub.shape[0] and np.any(form.a_ub @ x > form.b_ub + _FEAS_TOL):
        return False
    if form.a_eq.shape[0] and np.any(np.abs(form.a_eq @ x - form.b_eq) > _FEAS_TOL):
        return False
    return True


class _Node:
    """A B&B node: extra bounds layered over the root relaxation."""

    __slots__ = ("lower", "upper", "depth", "branch_var", "branch_dir", "parent_obj", "frac")

    def __init__(
        self,
        lower: np.ndarray,
        upper: np.ndarray,
        depth: int,
        branch_var: int = -1,
        branch_dir: int = 0,
        parent_obj: float = -math.inf,
        frac: float = 0.0,
    ) -> None:
        self.lower = lower
        self.upper = upper
        self.depth = depth
        self.branch_var = branch_var
        self.branch_dir = branch_dir
        self.parent_obj = parent_obj
        self.frac = frac


def solve_matrix(
    form: MatrixForm,
    max_nodes: int = 200000,
    gap_tol: float = 1e-9,
    use_presolve: bool = True,
    warm: Optional[WarmStart] = None,
    deadline: Optional[float] = None,
) -> SolveResult:
    """Solve a MILP given in matrix form. Minimization.

    The form's CSR blocks are expanded to dense arrays once, here; the
    rest of the native backend works on that :class:`DenseForm`.
    """
    if form.num_variables == 0:
        return solve_empty(form)
    form = densify(form)
    incumbent_x: Optional[np.ndarray] = None
    incumbent_obj = math.inf
    if warm is not None and warm.pool:
        # Seed against the *original* form: presolve only performs
        # inference (bound tightening / redundant-row drops), so any
        # point feasible here stays feasible for the reduced form.
        incumbent_x, incumbent_obj = _seed_incumbent(form, warm)
        if incumbent_x is None:
            incumbent_obj = math.inf
    if use_presolve:
        from repro.solver.presolve import PresolveStatus, presolve

        reduction = presolve(form)
        if reduction.status is PresolveStatus.INFEASIBLE:
            return SolveResult(SolveStatus.INFEASIBLE, message="presolve")
        if reduction.form is not None:
            form = reduction.form
    int_mask = form.integrality.astype(bool)

    prefer: Optional[np.ndarray] = None
    if warm is not None and warm.basis is not None:
        if warm.basis.shape[0] <= form.num_variables:
            prefer = np.zeros(form.num_variables, dtype=bool)
            prefer[: warm.basis.shape[0]] = warm.basis

    root = _Node(form.lower.copy(), form.upper.copy(), 0)
    counter = itertools.count()
    # Heap entries: (parent bound, tiebreak, node).
    heap: List[Tuple[float, int, _Node]] = [(-math.inf, next(counter), root)]
    nodes_explored = 0
    any_relaxation_solved = False
    root_infeasible = False
    hit_limit = False

    while heap:
        bound, _, node = heapq.heappop(heap)
        if bound >= incumbent_obj - gap_tol:
            continue
        if nodes_explored >= max_nodes:
            hit_limit = True
            break
        if deadline is not None and time.monotonic() >= deadline:
            # An unproven incumbent is not an optimum: report the limit.
            return SolveResult(
                SolveStatus.ITERATION_LIMIT,
                iterations=nodes_explored,
                message="deadline passed",
            )
        nodes_explored += 1

        lp = solve_lp(
            form.objective,
            form.a_ub,
            form.b_ub,
            form.a_eq,
            form.b_eq,
            node.lower,
            node.upper,
            prefer=prefer,
        )
        if lp.status is SolveStatus.INFEASIBLE:
            if nodes_explored == 1:
                root_infeasible = True
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

        any_relaxation_solved = True
        assert lp.x is not None and lp.objective is not None
        if warm is not None:
            if nodes_explored == 1 and lp.basic_vars is not None:
                basis = np.zeros(form.num_variables, dtype=bool)
                basis[lp.basic_vars] = True
                warm.basis = basis
            if node.branch_var >= 0 and math.isfinite(node.parent_obj):
                gain = (lp.objective - node.parent_obj) / max(node.frac, _INT_TOL)
                warm.note_branch(node.branch_var, node.branch_dir, gain)
        if lp.objective >= incumbent_obj - gap_tol:
            continue

        branch_var = _select_branch(lp.x, int_mask, warm)
        if branch_var is None:
            # Integral solution: new incumbent.
            if lp.objective < incumbent_obj - gap_tol:
                incumbent_obj = lp.objective
                incumbent_x = lp.x.copy()
                incumbent_x[int_mask] = np.round(incumbent_x[int_mask])
            continue

        value = lp.x[branch_var]
        floor_val = math.floor(value + _INT_TOL)
        frac_down = value - floor_val
        frac_up = 1.0 - frac_down

        down = _Node(
            node.lower.copy(), node.upper.copy(), node.depth + 1,
            branch_var, -1, lp.objective, frac_down,
        )
        down.upper[branch_var] = min(down.upper[branch_var], floor_val)
        if down.lower[branch_var] <= down.upper[branch_var]:
            heapq.heappush(heap, (lp.objective, next(counter), down))

        up = _Node(
            node.lower.copy(), node.upper.copy(), node.depth + 1,
            branch_var, 1, lp.objective, frac_up,
        )
        up.lower[branch_var] = max(up.lower[branch_var], floor_val + 1)
        if up.lower[branch_var] <= up.upper[branch_var]:
            heapq.heappush(heap, (lp.objective, next(counter), up))

    if incumbent_x is not None:
        if warm is not None:
            warm.note_solution(incumbent_x)
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
    if root_infeasible or not any_relaxation_solved or not heap:
        return SolveResult(SolveStatus.INFEASIBLE, iterations=nodes_explored)
    return SolveResult(SolveStatus.INFEASIBLE, iterations=nodes_explored)


def _select_branch(
    x: np.ndarray, int_mask: np.ndarray, warm: Optional[WarmStart]
) -> Optional[int]:
    """Branching variable: pseudo-cost product score, else most-fractional."""
    frac = np.abs(x - np.round(x))
    frac[~int_mask] = 0.0
    fractional = np.where(frac > _INT_TOL)[0]
    if fractional.size == 0:
        return None
    if warm is not None:
        best_j: Optional[int] = None
        best_score = -math.inf
        scored = False
        for j in fractional:
            down = warm._mean(warm.pseudo_down, int(j))
            up = warm._mean(warm.pseudo_up, int(j))
            if down is None and up is None:
                continue
            scored = True
            f_down = x[j] - math.floor(x[j] + _INT_TOL)
            f_up = 1.0 - f_down
            down = down if down is not None else (up or 0.0)
            up = up if up is not None else down
            score = max(down * f_down, 1e-12) * max(up * f_up, 1e-12)
            if score > best_score:
                best_score = score
                best_j = int(j)
        if scored and best_j is not None:
            return best_j
    return _most_fractional(x, int_mask)


def _most_fractional(x: np.ndarray, int_mask: np.ndarray) -> Optional[int]:
    """Index of the integral variable farthest from an integer, or None."""
    frac = np.abs(x - np.round(x))
    frac[~int_mask] = 0.0
    j = int(np.argmax(frac))
    if frac[j] <= _INT_TOL:
        return None
    return j


def solve(
    model: Model, max_nodes: int = 200000, warm: Optional[WarmStart] = None
) -> SolveResult:
    """Solve a :class:`Model` with the native branch-and-bound backend."""
    result = solve_matrix(model.to_matrix_form(), max_nodes=max_nodes, warm=warm)
    if result.is_optimal and not model.minimize and result.objective is not None:
        result.objective = -result.objective
    return result
