"""MILP model container.

A :class:`Model` holds decision variables, linear constraints in the
canonical form ``lhs SENSE rhs`` with a :class:`repro.expr.terms.LinExpr`
left-hand side, and a linear objective. Backends (native branch & bound,
scipy/HiGHS) consume models through :meth:`Model.to_matrix_form`.
"""

from __future__ import annotations

import enum
from typing import (
    Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union
)

import numpy as np

from repro.exceptions import SolverError
from repro.expr.constraints import Comparison, Sense
from repro.expr.terms import Domain, LinExpr, Number, Var
from repro.solver.result import SolveResult, SolveStatus


class ConstraintSense(enum.Enum):
    """Sense of a linear constraint row."""

    LE = "<="
    GE = ">="
    EQ = "=="


class LinearConstraint:
    """A named linear constraint ``expr SENSE rhs``."""

    __slots__ = ("expr", "sense", "rhs", "name")

    def __init__(
        self,
        expr: LinExpr,
        sense: ConstraintSense,
        rhs: float,
        name: str = "",
    ) -> None:
        self.expr = expr
        self.sense = sense
        self.rhs = float(rhs)
        self.name = name

    def violated_by(self, assignment: Mapping[Var, Number], tol: float = 1e-6) -> bool:
        value = self.expr.evaluate(assignment)
        if self.sense is ConstraintSense.LE:
            return value > self.rhs + tol
        if self.sense is ConstraintSense.GE:
            return value < self.rhs - tol
        return abs(value - self.rhs) > tol

    def __repr__(self) -> str:
        label = f"{self.name}: " if self.name else ""
        return f"{label}{self.expr} {self.sense.value} {self.rhs:g}"


class CsrRows(NamedTuple):
    """Constraint rows in compressed sparse row (CSR) layout: row ``i``
    has the nonzeros ``data[indptr[i]:indptr[i + 1]]`` at the columns
    ``indices[indptr[i]:indptr[i + 1]]``, in ascending column order.
    Indices are int32, as HiGHS takes them."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    num_columns: int

    @property
    def shape(self) -> Tuple[int, int]:
        return len(self.indptr) - 1, self.num_columns

    def stacked(self, below: CsrRows) -> CsrRows:
        """These rows followed by ``below``'s, over ``below``'s columns
        (columns appended after these rows are empty in them)."""
        return CsrRows(
            np.concatenate([self.indptr, below.indptr[1:] + self.indptr[-1]]),
            np.concatenate([self.indices, below.indices]),
            np.concatenate([self.data, below.data]),
            below.num_columns,
        )

    def toarray(self) -> np.ndarray:
        """The rows as a dense ``shape`` array."""
        dense = np.zeros(self.shape)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        dense[rows, self.indices] = self.data
        return dense


class MatrixForm(NamedTuple):
    """Sparse matrix view of a model: ``min c'x  s.t.  A_ub x <= b_ub,
    A_eq x = b_eq, lb <= x <= ub``, with an integrality mask."""

    variables: List[Var]
    objective: np.ndarray
    objective_constant: float
    a_ub: CsrRows
    b_ub: np.ndarray
    a_eq: CsrRows
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray

    @property
    def num_variables(self) -> int:
        return len(self.variables)


def solve_empty(form: MatrixForm) -> SolveResult:
    """Decide a variable-free model: every constraint row is 0 <= b / 0 = b."""
    feasible = bool(np.all(form.b_ub >= -1e-9)) and bool(
        np.all(np.abs(form.b_eq) <= 1e-9)
    )
    if feasible:
        return SolveResult(SolveStatus.OPTIMAL, form.objective_constant, {})
    return SolveResult(SolveStatus.INFEASIBLE)


#: ``(revision, #variables, #constraints)`` of a :class:`Model`; see
#: :meth:`Model.snapshot`.
Snapshot = Tuple[int, int, int]


class Model:
    """A mixed integer linear program."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._variables: List[Var] = []
        self._var_set: Dict[Var, int] = {}
        self.constraints: List[LinearConstraint] = []
        self.objective: LinExpr = LinExpr()
        self.minimize = True
        #: Bumped on *every* mutation (variable add, constraint add,
        #: objective change). Incremental consumers — the matrix cache
        #: below, :class:`repro.solver.session.IncrementalSession` and the
        #: key memo of :mod:`repro.runtime.keys` — hold a
        #: :meth:`snapshot` and ask :meth:`appended_since` whether every
        #: mutation after it was a pure append. Keys hash mathematical
        #: content only; the counter decides what to re-render, never
        #: what goes into a key.
        self.revision: int = 0
        #: The last :meth:`to_matrix_form` result and the snapshot it was
        #: built at, so a later call converts only what was appended.
        self._matrix_cache: Optional[Tuple[Snapshot, MatrixForm]] = None

    # -- variables ---------------------------------------------------------

    def add_variable(self, var: Var) -> Var:
        """Register a variable (idempotent)."""
        if var not in self._var_set:
            self._var_set[var] = len(self._variables)
            self._variables.append(var)
            self.revision += 1
        return var

    def add_variables(self, variables: Iterable[Var]) -> None:
        for var in variables:
            self.add_variable(var)

    def new_binary(self, name: str) -> Var:
        return self.add_variable(Var(name, Domain.BINARY, 0, 1))

    def new_integer(self, name: str, lb: float, ub: float) -> Var:
        return self.add_variable(Var(name, Domain.INTEGER, lb, ub))

    def new_continuous(self, name: str, lb: float, ub: float) -> Var:
        return self.add_variable(Var(name, Domain.CONTINUOUS, lb, ub))

    @property
    def variables(self) -> Tuple[Var, ...]:
        return tuple(self._variables)

    @property
    def num_variables(self) -> int:
        return len(self._variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def index_of(self, var: Var) -> int:
        try:
            return self._var_set[var]
        except KeyError:
            raise SolverError(f"variable {var.name!r} is not in model {self.name!r}")

    # -- constraints ---------------------------------------------------------

    def add_constraint(
        self,
        constraint: Union[LinearConstraint, Comparison],
        name: str = "",
    ) -> LinearConstraint:
        """Add a linear constraint.

        Accepts either a prepared :class:`LinearConstraint` or a
        :class:`Comparison` atom (``expr <= 0`` / ``expr == 0``).
        """
        if isinstance(constraint, Comparison):
            sense = (
                ConstraintSense.LE
                if constraint.sense is Sense.LE
                else ConstraintSense.EQ
            )
            body = LinExpr(constraint.expr.coeffs, 0.0)
            constraint = LinearConstraint(
                body, sense, -constraint.expr.constant, name
            )
        elif not isinstance(constraint, LinearConstraint):
            raise SolverError(
                f"cannot add {type(constraint).__name__} as a constraint"
            )
        for var in constraint.expr.coeffs:
            self.add_variable(var)
        self.constraints.append(constraint)
        self.revision += 1
        return constraint

    def add_le(self, expr, rhs: float, name: str = "") -> LinearConstraint:
        return self.add_constraint(
            LinearConstraint(LinExpr.coerce(expr), ConstraintSense.LE, rhs, name)
        )

    def add_ge(self, expr, rhs: float, name: str = "") -> LinearConstraint:
        return self.add_constraint(
            LinearConstraint(LinExpr.coerce(expr), ConstraintSense.GE, rhs, name)
        )

    def add_eq(self, expr, rhs: float, name: str = "") -> LinearConstraint:
        return self.add_constraint(
            LinearConstraint(LinExpr.coerce(expr), ConstraintSense.EQ, rhs, name)
        )

    # -- objective -------------------------------------------------------------

    def set_objective(self, expr, minimize: bool = True) -> None:
        self.objective = LinExpr.coerce(expr)
        self.minimize = minimize
        self.revision += 1
        for var in self.objective.coeffs:
            self.add_variable(var)

    # -- append tracking -------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """The model's ``(revision, #variables, #constraints)`` now."""
        return (self.revision, len(self._variables), len(self.constraints))

    def appended_since(self, snapshot: Optional[Snapshot]) -> bool:
        """True when every mutation since ``snapshot`` (taken on this
        model) appended a variable or a constraint.

        Each mutation bumps :attr:`revision` once, and only appends also
        grow a count, so the revision delta equals the count deltas
        exactly when nothing else (such as :meth:`set_objective`)
        happened. ``None`` — no snapshot yet — is never append-only.
        """
        if snapshot is None:
            return False
        revision, num_variables, num_constraints = snapshot
        new_vars = len(self._variables) - num_variables
        new_cons = len(self.constraints) - num_constraints
        return (
            new_vars >= 0
            and new_cons >= 0
            and self.revision - revision == new_vars + new_cons
        )

    # -- copying ---------------------------------------------------------------

    def copy(self, name: str = "") -> "Model":
        """Shallow-clone the model (variables and constraints are shared
        immutable objects; the containers are fresh). Used to extend a
        cached base model with per-iteration cuts."""
        clone = Model(name or self.name)
        clone._variables = list(self._variables)
        clone._var_set = dict(self._var_set)
        clone.constraints = list(self.constraints)
        clone.objective = self.objective
        clone.minimize = self.minimize
        return clone

    # -- evaluation ---------------------------------------------------------------

    def is_feasible(self, assignment: Mapping[Var, Number], tol: float = 1e-6) -> bool:
        """Check a full assignment against constraints, bounds, integrality."""
        for var in self._variables:
            if var not in assignment:
                return False
            value = float(assignment[var])
            if value < var.lb - tol or value > var.ub + tol:
                return False
            if var.is_integral and abs(value - round(value)) > tol:
                return False
        return not any(c.violated_by(assignment, tol) for c in self.constraints)

    def objective_value(self, assignment: Mapping[Var, Number]) -> float:
        return self.objective.evaluate(assignment)

    # -- matrix form -------------------------------------------------------------

    def to_matrix_form(self) -> MatrixForm:
        """Convert to sparse matrices (minimization form).

        The conversion is cached on the model: when every mutation since
        the previous call was an append (new variables and/or new
        constraints — the cut-accumulation pattern of the exploration
        loop), only the new rows are converted and stacked under the
        cached blocks. Any other mutation (objective change) falls back
        to a full rebuild. Returned forms are fresh objects; their
        arrays must be treated as read-only by backends.
        """
        snapshot, form = self._matrix_cache or (None, None)
        if snapshot is not None and snapshot[0] == self.revision:
            return form
        if self.appended_since(snapshot):
            form = self._extend_matrix_form(form, snapshot)
        else:
            form = self._build_matrix_form()
        self._matrix_cache = (self.snapshot(), form)
        return form

    def _rows(
        self, constraints: Sequence[LinearConstraint]
    ) -> Tuple[CsrRows, np.ndarray, CsrRows, np.ndarray]:
        """``(A_ub, b_ub, A_eq, b_eq)`` of ``constraints``, in order.

        The one place a :class:`LinearConstraint` becomes a solver row:
        GE rows are negated into LE rows, the expression's constant
        moves to the right-hand side, and each row lists its
        coefficients in ascending column order. :class:`LinExpr` never
        stores a zero coefficient, so no row holds an explicit zero.
        """
        index = self._var_set
        columns: List[int] = []
        values: List[float] = []
        sizes: List[int] = []
        rhs: List[float] = []
        signs: List[float] = []
        equalities: List[bool] = []
        for constraint in constraints:
            coeffs = constraint.expr.coeffs
            columns.extend(map(index.__getitem__, coeffs))
            values.extend(coeffs.values())
            sizes.append(len(coeffs))
            rhs.append(constraint.rhs - constraint.expr.constant)
            signs.append(-1.0 if constraint.sense is ConstraintSense.GE else 1.0)
            equalities.append(constraint.sense is ConstraintSense.EQ)
        m, n = len(sizes), len(self._variables)
        sign = np.array(signs, dtype=float)
        is_eq = np.array(equalities, dtype=bool)
        row = np.repeat(np.arange(m), sizes)
        data = np.array(values, dtype=float) * sign[row]
        col = np.array(columns, dtype=np.int32)
        # One sort puts the LE block's entries before the EQ block's,
        # row by row, each row in column order (keys are unique: a
        # coefficient map holds each variable once).
        order = np.argsort((is_eq[row] * m + row) * n + col)
        col, data = col[order], data[order]
        block_order = np.argsort(is_eq, kind="stable")
        indptr = np.zeros(m + 1, dtype=np.int32)
        np.cumsum(np.array(sizes, dtype=np.int32)[block_order], out=indptr[1:])
        b = (np.array(rhs, dtype=float) * sign)[block_order]
        k = m - int(is_eq.sum())  # rows in the LE block
        split = indptr[k]
        return (
            CsrRows(indptr[: k + 1], col[:split], data[:split], n),
            b[:k],
            CsrRows(indptr[k:] - split, col[split:], data[split:], n),
            b[k:],
        )

    def _columns(
        self, variables: Sequence[Var]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lower, upper, integrality)`` of ``variables``."""
        lower = np.array([v.lb for v in variables], dtype=float)
        upper = np.array([v.ub for v in variables], dtype=float)
        integrality = np.array([v.is_integral for v in variables], dtype=int)
        return lower, upper, integrality

    def _build_matrix_form(self) -> MatrixForm:
        """Full conversion from scratch."""
        sign = 1.0 if self.minimize else -1.0
        objective = np.zeros(len(self._variables))
        for var, coef in self.objective.coeffs.items():
            objective[self._var_set[var]] = sign * coef
        return MatrixForm(
            list(self._variables),
            objective,
            sign * self.objective.constant,
            *self._rows(self.constraints),
            *self._columns(self._variables),
        )

    def _extend_matrix_form(
        self, old: MatrixForm, snapshot: Snapshot
    ) -> MatrixForm:
        """Append-only fast path: convert only the new rows and columns.

        Appended variables carry zero coefficients in every cached row
        and in the (unchanged) objective, so the cached blocks only
        widen; the new rows are stacked under them.
        """
        _, num_variables, num_constraints = snapshot
        a_ub, b_ub, a_eq, b_eq = self._rows(self.constraints[num_constraints:])
        lower, upper, integrality = self._columns(self._variables[num_variables:])
        return MatrixForm(
            list(self._variables),
            np.concatenate([old.objective, np.zeros(len(lower))]),
            old.objective_constant,
            old.a_ub.stacked(a_ub),
            np.concatenate([old.b_ub, b_ub]),
            old.a_eq.stacked(a_eq),
            np.concatenate([old.b_eq, b_eq]),
            np.concatenate([old.lower, lower]),
            np.concatenate([old.upper, upper]),
            np.concatenate([old.integrality, integrality]),
        )

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, vars={self.num_variables}, "
            f"constraints={self.num_constraints})"
        )
