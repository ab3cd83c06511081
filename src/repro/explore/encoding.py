"""Problem 2 — candidate architecture selection as a MILP.

Builds the optimization problem

    min  sum_i alpha_i * sum_x m(i,x) * cost(x)
    s.t. phi_A and phi_G for every component contract of every viewpoint
         phi_c            (the accumulated infeasibility certificates)

over the mapping template's decision variables. Logical structure in the
contract formulas is lowered to linear arithmetic by the big-M encoder.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.template import MappingTemplate
from repro.expr.constraints import Comparison, Formula, Or, Sense
from repro.expr.terms import LinExpr, Var
from repro.solver.encoder import FormulaEncoder
from repro.solver.model import Model
from repro.spec.base import Specification


#: One linear atom ``coef * sum(x[columns]) <= bound``.
Atom = Tuple[np.ndarray, float, float]


class Cut:
    """One infeasibility-certificate constraint (element of the set c).

    A cut is a formula, or -- as every cut of
    :func:`repro.explore.certificates.generate_cuts` is -- sparse rows
    over the template's
    :class:`~repro.arch.template.StructuralColumns`: a disjunction of
    ``atoms``, with a ``key`` that names the rows for deduplication. A
    row cut builds its formula from the columns' own variables on first
    read and caches it.
    """

    __slots__ = ("_formula", "description", "atoms", "variables", "key")

    def __init__(self, formula: Optional[Formula], description: str = "") -> None:
        self._formula = formula
        self.description = description
        self.atoms: Tuple[Atom, ...] = ()
        self.variables: Tuple[Var, ...] = ()
        self.key: Optional[Hashable] = None

    @classmethod
    def from_rows(
        cls,
        atoms: Tuple[Atom, ...],
        variables: Tuple[Var, ...],
        key: Hashable,
        description: str,
    ) -> "Cut":
        """A cut of ``atoms`` over columns numbered like ``variables``."""
        cut = cls(None, description)
        cut.atoms, cut.variables, cut.key = atoms, variables, key
        return cut

    @property
    def formula(self) -> Formula:
        if self._formula is None:
            variables = self.variables
            # ``0.0 - bound``, not ``-bound``: a zero bound must give the
            # +0.0 constant ``expr <= 0`` gives, or the formula key differs.
            comparisons = [
                Comparison(
                    LinExpr({variables[j]: coef for j in cols.tolist()}, 0.0 - bound),
                    Sense.LE,
                )
                for cols, coef, bound in self.atoms
            ]
            self._formula = (
                comparisons[0] if len(comparisons) == 1 else Or(*comparisons)
            )
        return self._formula

    def __repr__(self) -> str:
        return f"Cut({self.description or self.formula!r})"


def cost_expression(mapping_template: MappingTemplate) -> LinExpr:
    """The paper's additive objective ``sum_i alpha_i beta_i c_i``.

    ``beta_i c_i`` expands to ``sum_x m(i,x) cost(x)`` — selecting no
    implementation costs nothing.
    """
    terms: List[LinExpr] = []
    for component in mapping_template.template.components():
        for impl, m_var in mapping_template.mappings_of(component.name):
            terms.append(component.weight * impl.cost * m_var.to_expr())
    return LinExpr.sum(terms)


def symmetry_groups(mapping_template: MappingTemplate) -> List[List[str]]:
    """Groups of interchangeable template slots.

    Two slots are interchangeable when they have the same type, the same
    candidate neighbourhoods, and identical per-slot parameters — e.g.
    the n candidate machines of one RPL stage. Any feasible architecture
    can be permuted within such a group without changing cost or
    contract satisfaction, so the MILP may order their instantiation
    indicators (the "efficient encodings" device of the ArchEx line of
    work) without losing any distinct design.
    """
    template = mapping_template.template
    buckets = {}
    for component in template.components():
        key = (
            component.type_name,
            frozenset(template.in_candidates(component.name)) - {component.name},
            frozenset(template.out_candidates(component.name)) - {component.name},
            component.max_fan_in,
            component.max_fan_out,
            component.generated_flow,
            component.consumed_flow,
            component.input_jitter,
            component.output_jitter,
            component.weight,
            tuple(sorted(component.params.items())),
        )
        buckets.setdefault(key, []).append(component.name)
    return [sorted(names) for names in buckets.values() if len(names) > 1]


def symmetry_breaking_constraints(
    mapping_template: MappingTemplate,
) -> List[Formula]:
    """Ordering constraints ``beta_i >= beta_{i+1}`` per symmetry group."""
    formulas: List[Formula] = []
    for group in symmetry_groups(mapping_template):
        for first, second in zip(group, group[1:]):
            beta_first = LinExpr.sum(
                var for _, var in mapping_template.mappings_of(first)
            )
            beta_second = LinExpr.sum(
                var for _, var in mapping_template.mappings_of(second)
            )
            formulas.append(beta_first - beta_second >= 0)
    return formulas


def build_candidate_milp(
    mapping_template: MappingTemplate,
    specification: Specification,
    cuts: Sequence[Cut] = (),
    extra_constraints: Iterable[Formula] = (),
    name: str = "candidate-selection",
    break_symmetry: bool = True,
) -> Model:
    """Assemble the Problem-2 MILP."""
    model = Model(name)
    # Register structural variables first for stable ordering.
    model.add_variables(mapping_template.structural_vars())

    encoder = FormulaEncoder(model, prefix="p2")
    contracts = specification.all_component_contracts(mapping_template)
    for viewpoint_name, per_component in contracts.items():
        for component_name, contract in per_component.items():
            encoder.prefix = f"{viewpoint_name}:{component_name}"
            encoder.enforce(contract.assumptions)
            encoder.enforce(contract.guarantees)

    encoder.prefix = "cut"
    for cut in cuts:
        encoder.enforce(cut.formula)
    encoder.prefix = "extra"
    for formula in extra_constraints:
        encoder.enforce(formula)
    if break_symmetry:
        encoder.prefix = "sym"
        for formula in symmetry_breaking_constraints(mapping_template):
            encoder.enforce(formula)

    model.set_objective(cost_expression(mapping_template), minimize=True)
    return model
