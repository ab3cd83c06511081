"""Contract refinement checking (Problem 3 of the paper).

``C refines C'`` (written ``C <= C'``) iff C accepts at least the
environments of C' (weaker assumptions) and promises at least the
guarantees of C' (stronger guarantees):

* assumptions query:  ``A' and not A``   must be UNSAT;
* guarantees query:   ``G and not G'``   must be UNSAT  (saturated G's).

Each query is discharged through the MILP feasibility oracle — this is
the role Gurobi plays in the paper's tool chain. A failed query returns
the satisfying witness, which the certificate generator uses only as
diagnostic payload (the cut itself is structural).

Note: the paper's prose writes the first query as ``A_c and not A_s``;
that contradicts the "weaker assumptions" definition it states two
paragraphs earlier, so we implement the standard direction (see
DESIGN.md section 1).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

from repro.contracts.contract import Contract
from repro.expr.constraints import And, Formula
from repro.expr.terms import Var
from repro.expr.transform import negate
from repro.solver.feasibility import check_sat


class RefinementFailure(enum.Enum):
    """Which half of the refinement check failed."""

    ASSUMPTIONS = "assumptions"
    GUARANTEES = "guarantees"


class RefinementResult:
    """Outcome of a refinement check, with a witness on failure."""

    __slots__ = ("holds", "failure", "witness")

    def __init__(
        self,
        holds: bool,
        failure: Optional[RefinementFailure] = None,
        witness: Optional[Dict[Var, float]] = None,
    ) -> None:
        self.holds = holds
        self.failure = failure
        self.witness = dict(witness or {})

    def __bool__(self) -> bool:
        return self.holds

    def __repr__(self) -> str:
        if self.holds:
            return "RefinementResult(holds)"
        return f"RefinementResult(fails: {self.failure.value})"


def refinement_queries(
    concrete: Contract,
    abstract: Contract,
    check_assumptions: bool = True,
    saturate_concrete: bool = True,
) -> List[Tuple[RefinementFailure, Formula]]:
    """The ordered satisfiability queries deciding ``concrete <= abstract``.

    Refinement holds iff *every* returned formula is UNSAT; the first
    SAT one (in order) names the failing half and its witness.
    :func:`check_refinement` evaluates this plan lazily, stopping at the
    first SAT query.
    """
    concrete_sat = concrete if not saturate_concrete else concrete.saturate()
    abstract_sat = abstract.saturate()
    queries: List[Tuple[RefinementFailure, Formula]] = []
    if check_assumptions:
        queries.append(
            (
                RefinementFailure.ASSUMPTIONS,
                And(abstract_sat.assumptions, negate(concrete_sat.assumptions)),
            )
        )
    queries.append(
        (
            RefinementFailure.GUARANTEES,
            And(concrete_sat.guarantees, negate(abstract_sat.guarantees)),
        )
    )
    return queries


def check_refinement(
    concrete: Contract,
    abstract: Contract,
    check_assumptions: bool = True,
    saturate_concrete: bool = True,
    oracle=None,
) -> RefinementResult:
    """Check ``concrete <= abstract``.

    ``check_assumptions=False`` skips the assumptions query — the common
    case in architecture exploration, where the system contract's
    assumptions are guaranteed by construction of the candidate (all
    environment constraints are already in the MILP).

    ``saturate_concrete=False`` uses the concrete contract's *raw*
    guarantee formulas instead of the saturated ``G or not A`` — the
    formulation the paper's refinement queries use (``phi_G`` directly).
    Saturation lets a component escape its own guarantee by violating
    its own assumption, which makes system obligations like minimum
    delivered flow underivable from any composition; the raw form is the
    appropriate check when every component assumption is already
    enforced by the candidate-selection MILP.

    ``oracle`` memoizes the two UNSAT queries (see
    :func:`repro.solver.feasibility.check_sat`); repeated refinement
    checks over the same contract pair are served from cache.
    """
    for failure, query in refinement_queries(
        concrete,
        abstract,
        check_assumptions=check_assumptions,
        saturate_concrete=saturate_concrete,
    ):
        sat = check_sat(query, oracle=oracle)
        if sat:
            return RefinementResult(False, failure, sat.assignment)
    return RefinementResult(True)


def refines(concrete: Contract, abstract: Contract) -> bool:
    """Boolean form of :func:`check_refinement`."""
    return bool(check_refinement(concrete, abstract))
