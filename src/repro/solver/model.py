"""MILP model container.

A :class:`Model` holds decision variables, linear constraints in the
canonical form ``lhs SENSE rhs`` with a :class:`repro.expr.terms.LinExpr`
left-hand side, and a linear objective. Backends (native branch & bound,
scipy/HiGHS) consume models through :meth:`Model.to_matrix_form`.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import SolverError
from repro.expr.constraints import Comparison, Sense
from repro.expr.terms import Domain, LinExpr, Number, Var


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


class MatrixForm:
    """Dense matrix view of a model: ``min c'x  s.t.  A_ub x <= b_ub,
    A_eq x = b_eq, lb <= x <= ub``, with an integrality mask."""

    __slots__ = (
        "variables",
        "objective",
        "objective_constant",
        "a_ub",
        "b_ub",
        "a_eq",
        "b_eq",
        "lower",
        "upper",
        "integrality",
    )

    def __init__(
        self,
        variables: Sequence[Var],
        objective: np.ndarray,
        objective_constant: float,
        a_ub: np.ndarray,
        b_ub: np.ndarray,
        a_eq: np.ndarray,
        b_eq: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        integrality: np.ndarray,
    ) -> None:
        self.variables = list(variables)
        self.objective = objective
        self.objective_constant = objective_constant
        self.a_ub = a_ub
        self.b_ub = b_ub
        self.a_eq = a_eq
        self.b_eq = b_eq
        self.lower = lower
        self.upper = upper
        self.integrality = integrality

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return self.a_ub.shape[0] + self.a_eq.shape[0]


#: ``(revision, #variables, #constraints)`` of a :class:`Model`; see
#: :meth:`Model.snapshot`.
Snapshot = Tuple[int, int, int]


class _MatrixCache:
    """The last :meth:`Model.to_matrix_form` conversion and the
    :meth:`Model.snapshot` it was built at, so a later call can convert
    just the rows appended since (the exploration loop appends a few cut
    rows per iteration to an otherwise unchanged model)."""

    __slots__ = ("snapshot", "form")

    def __init__(self, snapshot: Snapshot, form: MatrixForm) -> None:
        self.snapshot = snapshot
        self.form = form


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
        self._matrix_cache: Optional[_MatrixCache] = None

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
        """Convert to dense matrices (minimization form).

        The conversion is cached on the model: when every mutation since
        the previous call was an append (new variables and/or new
        constraints — the cut-accumulation pattern of the exploration
        loop), only the new rows are converted and the cached dense
        blocks are reused. Any other mutation (objective change) falls
        back to a full rebuild. Returned forms are fresh objects; their
        arrays must be treated as read-only by backends.
        """
        cache = self._matrix_cache
        if cache is not None and cache.snapshot[0] == self.revision:
            return cache.form
        if cache is not None and self.appended_since(cache.snapshot):
            form = self._extend_matrix_form(cache)
        else:
            form = self._build_matrix_form()
        self._matrix_cache = _MatrixCache(self.snapshot(), form)
        return form

    def _constraint_row(
        self, constraint: LinearConstraint, n: int
    ) -> Tuple[np.ndarray, float, bool]:
        """One LE-or-EQ normalized dense row: (row, rhs, is_equality)."""
        row = np.zeros(n)
        for var, coef in constraint.expr.coeffs.items():
            row[self._var_set[var]] = coef
        rhs = constraint.rhs - constraint.expr.constant
        if constraint.sense is ConstraintSense.GE:
            return -row, -rhs, False
        return row, rhs, constraint.sense is ConstraintSense.EQ

    def _build_matrix_form(self) -> MatrixForm:
        """Full conversion from scratch."""
        n = len(self._variables)
        objective = np.zeros(n)
        for var, coef in self.objective.coeffs.items():
            objective[self._var_set[var]] = coef
        objective_constant = self.objective.constant
        if not self.minimize:
            objective = -objective
            objective_constant = -objective_constant

        ub_rows: List[np.ndarray] = []
        ub_rhs: List[float] = []
        eq_rows: List[np.ndarray] = []
        eq_rhs: List[float] = []
        for constraint in self.constraints:
            row, rhs, is_eq = self._constraint_row(constraint, n)
            if is_eq:
                eq_rows.append(row)
                eq_rhs.append(rhs)
            else:
                ub_rows.append(row)
                ub_rhs.append(rhs)

        a_ub = np.vstack(ub_rows) if ub_rows else np.zeros((0, n))
        a_eq = np.vstack(eq_rows) if eq_rows else np.zeros((0, n))
        lower = np.array([v.lb for v in self._variables])
        upper = np.array([v.ub for v in self._variables])
        integrality = np.array(
            [1 if v.is_integral else 0 for v in self._variables], dtype=int
        )
        return MatrixForm(
            self._variables,
            objective,
            objective_constant,
            a_ub,
            np.array(ub_rhs),
            a_eq,
            np.array(eq_rhs),
            lower,
            upper,
            integrality,
        )

    def _extend_matrix_form(self, cache: _MatrixCache) -> MatrixForm:
        """Append-only fast path: pad columns, convert only new rows."""
        old = cache.form
        _, num_variables, num_constraints = cache.snapshot
        n = len(self._variables)
        new_vars = n - num_variables
        if new_vars:
            # Appended variables carry zero coefficients in every cached
            # row and in the (unchanged) objective.
            pad_ub = np.zeros((old.a_ub.shape[0], new_vars))
            pad_eq = np.zeros((old.a_eq.shape[0], new_vars))
            a_ub = np.hstack([old.a_ub, pad_ub])
            a_eq = np.hstack([old.a_eq, pad_eq])
            objective = np.concatenate([old.objective, np.zeros(new_vars)])
            added = self._variables[num_variables:]
            lower = np.concatenate([old.lower, [v.lb for v in added]])
            upper = np.concatenate([old.upper, [v.ub for v in added]])
            integrality = np.concatenate(
                [old.integrality, [1 if v.is_integral else 0 for v in added]]
            ).astype(int)
        else:
            a_ub, a_eq = old.a_ub, old.a_eq
            objective = old.objective
            lower, upper, integrality = old.lower, old.upper, old.integrality

        ub_rows: List[np.ndarray] = []
        ub_rhs: List[float] = []
        eq_rows: List[np.ndarray] = []
        eq_rhs: List[float] = []
        for constraint in self.constraints[num_constraints:]:
            row, rhs, is_eq = self._constraint_row(constraint, n)
            if is_eq:
                eq_rows.append(row)
                eq_rhs.append(rhs)
            else:
                ub_rows.append(row)
                ub_rhs.append(rhs)
        if ub_rows:
            a_ub = np.vstack([a_ub] + ub_rows)
            b_ub = np.concatenate([old.b_ub, ub_rhs])
        else:
            b_ub = old.b_ub
        if eq_rows:
            a_eq = np.vstack([a_eq] + eq_rows)
            b_eq = np.concatenate([old.b_eq, eq_rhs])
        else:
            b_eq = old.b_eq
        return MatrixForm(
            self._variables,
            objective,
            old.objective_constant,
            a_ub,
            b_ub,
            a_eq,
            b_eq,
            lower,
            upper,
            integrality,
        )

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, vars={self.num_variables}, "
            f"constraints={self.num_constraints})"
        )
