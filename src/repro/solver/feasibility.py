"""Satisfiability oracle for linear/boolean formulas.

Refinement checking (Problem 3 of the paper) reduces to UNSAT queries
over conjunctions of contract predicates and negated predicates. We
discharge each query by encoding the formula into a feasibility MILP
(objective 0) and asking a backend whether it admits a solution — the
role Gurobi plays in the original tool chain.

Every query the pipeline sends goes to the scipy/HiGHS backend. The
``backend`` argument exists for tests: the other name in
:data:`BACKENDS` routes a query to the reference branch-and-bound, an
independent check on HiGHS's verdicts.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional

from repro.exceptions import SolverError
from repro.expr.constraints import Formula
from repro.expr.terms import Var
from repro.solver import branch_bound, scipy_backend
from repro.solver.encoder import enforce
from repro.solver.model import Model
from repro.solver.result import SolveResult, SolveStatus

#: Registered solve callables per backend name.
BACKENDS: Dict[str, Callable[[Model], SolveResult]] = {
    "scipy": scipy_backend.solve,
    "native": branch_bound.solve,
}

DEFAULT_BACKEND = "scipy"


def get_backend(name: str) -> Callable[[Model], SolveResult]:
    """Resolve a registered solver backend by name."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise SolverError(
            f"unknown solver backend {name!r}; available: {sorted(BACKENDS)}"
        )


class SatResult:
    """Outcome of a satisfiability query."""

    __slots__ = ("satisfiable", "assignment")

    def __init__(
        self, satisfiable: bool, assignment: Optional[Mapping[Var, float]] = None
    ) -> None:
        self.satisfiable = satisfiable
        self.assignment = dict(assignment or {})

    def __bool__(self) -> bool:
        return self.satisfiable

    def __repr__(self) -> str:
        return f"SatResult({'SAT' if self.satisfiable else 'UNSAT'})"


def check_sat(
    formula: Formula,
    backend: str = DEFAULT_BACKEND,
    default_big_m: Optional[float] = None,
    oracle=None,
) -> SatResult:
    """Decide satisfiability of ``formula`` over its variables' domains.

    ``oracle`` is the memoization seam used by the batch runtime: any
    object with a ``sat_query(formula, backend, default_big_m, compute)``
    method (see :class:`repro.runtime.oracle.OracleCache`) may intercept
    the query and serve repeats without re-solving.
    """
    if oracle is not None:
        return oracle.sat_query(
            formula,
            backend,
            default_big_m,
            lambda: check_sat(formula, backend=backend, default_big_m=default_big_m),
        )
    model = Model("sat-query")
    for var in sorted(formula.variables(), key=lambda v: v.name):
        model.add_variable(var)
    enforce(model, formula, default_big_m=default_big_m, prefix="sat")
    result = get_backend(backend)(model)
    if result.status is SolveStatus.OPTIMAL:
        witness = {
            var: result.assignment[var]
            for var in formula.variables()
            if var in result.assignment
        }
        return SatResult(True, witness)
    if result.status is SolveStatus.INFEASIBLE:
        return SatResult(False)
    raise SolverError(
        f"satisfiability query ended with status {result.status.value}: "
        f"{result.message}"
    )


def is_unsat(
    formula: Formula,
    backend: str = DEFAULT_BACKEND,
    default_big_m: Optional[float] = None,
    oracle=None,
) -> bool:
    """True iff ``formula`` has no satisfying assignment."""
    return not check_sat(
        formula, backend=backend, default_big_m=default_big_m, oracle=oracle
    )
