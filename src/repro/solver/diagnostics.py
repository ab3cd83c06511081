"""Infeasibility diagnosis (IIS-style) for MILP models.

When a design space admits no architecture (the Problem-2 MILP is
infeasible), designers need to know *which requirements conflict*. This
module implements the classic deletion filter: walk the constraint list
once, dropping every constraint whose removal keeps the model
infeasible; what remains is an irreducible infeasible subsystem — a
minimal set of mutually conflicting constraints (minimal w.r.t. the
single-pass filter; bounds are treated as unremovable).

Constraint *names* (set by the contract encoders: ``viewpoint:component``
prefixes) make the result directly interpretable.
"""

from __future__ import annotations

from typing import List, Optional

from repro.exceptions import SolverError
from repro.solver import scipy_backend
from repro.solver.model import LinearConstraint, Model
from repro.solver.result import SolveStatus


def _is_feasible(model: Model) -> bool:
    probe = model.copy("iis-probe")
    probe.set_objective(probe.objective * 0.0)
    result = scipy_backend.solve(probe)
    if result.status is SolveStatus.OPTIMAL:
        return True
    if result.status is SolveStatus.INFEASIBLE:
        return False
    raise SolverError(
        f"feasibility probe ended with status {result.status.value}"
    )


def find_iis(
    model: Model, max_constraints: Optional[int] = None
) -> List[LinearConstraint]:
    """Return an irreducible infeasible subset of ``model``'s constraints.

    Raises :class:`SolverError` if the model is actually feasible.
    ``max_constraints`` aborts early once the kept set exceeds the given
    size (diagnosis budgets for very large models).
    """
    if _is_feasible(model):
        raise SolverError("model is feasible; nothing to diagnose")

    kept: List[LinearConstraint] = list(model.constraints)
    index = 0
    while index < len(kept):
        trial = kept[:index] + kept[index + 1 :]
        probe = Model("iis-trial")
        for var in model.variables:
            probe.add_variable(var)
        for constraint in trial:
            probe.add_constraint(constraint)
        if _is_feasible(probe):
            index += 1  # constraint is necessary for infeasibility
        else:
            kept = trial  # still infeasible without it: drop
        if max_constraints is not None and index > max_constraints:
            break
    return kept


def summarize_iis(constraints: List[LinearConstraint]) -> str:
    """Human-readable rendering of a conflict set, grouped by the
    ``viewpoint:component`` prefixes the encoders attach."""
    lines = [f"irreducible conflict set ({len(constraints)} constraints):"]
    for constraint in constraints:
        label = constraint.name or "<unnamed>"
        lines.append(f"  {label}: {constraint.expr} {constraint.sense.value} "
                     f"{constraint.rhs:g}")
    return "\n".join(lines)


def diagnose_infeasible_exploration(mapping_template, specification) -> str:
    """Build the Problem-2 MILP and explain why no candidate exists."""
    from repro.explore.encoding import build_candidate_milp

    model = build_candidate_milp(mapping_template, specification)
    return summarize_iis(find_iis(model))
