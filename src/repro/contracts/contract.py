"""Assume/guarantee contracts over linear-arithmetic predicates.

A contract ``C = (V, A, G)`` captures assumptions ``A`` on the
environment and guarantees ``G`` offered under those assumptions
(Section II-A of the paper; Benveniste et al. for the full theory). The
behaviour sets are predicates of the constraint language in
:mod:`repro.expr`; the variable support is derived from the formulas.
"""

from __future__ import annotations

from typing import FrozenSet, Mapping, Optional

from repro.exceptions import ContractError
from repro.expr.constraints import Formula, Or, TRUE
from repro.expr.terms import Number, Var
from repro.expr.transform import negate, substitute
from repro.solver.feasibility import check_sat


class Contract:
    """An assume/guarantee contract with formula-valued A and G."""

    __slots__ = ("name", "assumptions", "guarantees", "_saturated")

    def __init__(
        self,
        name: str,
        assumptions: Formula,
        guarantees: Formula,
        _saturated: bool = False,
    ) -> None:
        if not isinstance(assumptions, Formula) or not isinstance(guarantees, Formula):
            raise ContractError(
                "assumptions and guarantees must be Formula instances"
            )
        self.name = name
        self.assumptions = assumptions
        self.guarantees = guarantees
        self._saturated = _saturated

    # -- structure ---------------------------------------------------------

    def variables(self) -> FrozenSet[Var]:
        """Variable support of the contract."""
        return self.assumptions.variables() | self.guarantees.variables()

    @property
    def is_saturated(self) -> bool:
        return self._saturated

    def saturate(self) -> "Contract":
        """Return the saturated contract ``(A, G or not A)``.

        Saturation makes the guarantee explicit about off-assumption
        behaviours and is required before composition and refinement,
        which are defined on saturated forms.
        """
        if self._saturated:
            return self
        if isinstance(self.assumptions, type(TRUE)) and getattr(
            self.assumptions, "value", None
        ) is True:
            return Contract(self.name, self.assumptions, self.guarantees, True)
        saturated_g = Or(self.guarantees, negate(self.assumptions))
        return Contract(self.name, self.assumptions, saturated_g, True)

    def substitute(self, assignment: Mapping[Var, Number]) -> "Contract":
        """Fix a subset of variables in both A and G.

        Used to specialize component contracts to a selected candidate
        (edge and mapping variables pinned to the MILP solution).
        """
        return Contract(
            self.name,
            substitute(self.assumptions, assignment),
            substitute(self.guarantees, assignment),
            self._saturated,
        )

    # -- semantic checks -------------------------------------------------------

    def is_consistent(self) -> bool:
        """A contract is consistent iff it admits an implementation,
        i.e. ``G or not A`` is satisfiable."""
        return bool(check_sat(self.saturate().guarantees))

    def is_compatible(self) -> bool:
        """A contract is compatible iff it admits an environment,
        i.e. ``A`` is satisfiable."""
        return bool(check_sat(self.assumptions))

    # -- misc ----------------------------------------------------------------------

    def renamed(self, name: str) -> "Contract":
        return Contract(name, self.assumptions, self.guarantees, self._saturated)

    def __repr__(self) -> str:
        marker = "*" if self._saturated else ""
        return f"Contract({self.name!r}{marker}, |V|={len(self.variables())})"


def contract(
    name: str,
    assumptions: Optional[Formula] = None,
    guarantees: Optional[Formula] = None,
) -> Contract:
    """Convenience constructor with TRUE defaults."""
    return Contract(name, assumptions or TRUE, guarantees or TRUE)
