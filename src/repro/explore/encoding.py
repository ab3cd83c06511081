"""Problem 2 — candidate architecture selection as a MILP.

Builds the optimization problem

    min  sum_i alpha_i * sum_x m(i,x) * cost(x)
    s.t. phi_A and phi_G for every component contract of every viewpoint

over the mapping template's decision variables. Logical structure in the
contract formulas is lowered to linear arithmetic by the big-M encoder.
The exploration loop (:mod:`repro.explore.engine`) appends the
accumulated infeasibility certificates, one :class:`Cut` row each.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.arch.architecture import CandidateArchitecture
from repro.arch.template import MappingTemplate
from repro.expr.constraints import Comparison, Formula, Sense
from repro.expr.terms import LinExpr, Var
from repro.solver.encoder import FormulaEncoder
from repro.solver.model import Model
from repro.spec.base import Specification


class Cut:
    """One infeasibility-certificate constraint (element of the set c).

    A cut is one sparse row over the template's
    :class:`~repro.arch.template.StructuralColumns`:
    ``sum(coefs * x[columns]) <= bound``, with a ``key`` that names the
    row for deduplication. It builds its formula from the columns' own
    variables on first read and caches it.
    """

    __slots__ = (
        "columns",
        "coefs",
        "bound",
        "variables",
        "key",
        "description",
        "_formula",
    )

    def __init__(
        self,
        columns: np.ndarray,
        coefs: np.ndarray,
        bound: float,
        variables: Tuple[Var, ...],
        key: Hashable = None,
        description: str = "",
    ) -> None:
        self.columns = columns
        self.coefs = coefs
        self.bound = bound
        self.variables = variables
        self.key = key
        self.description = description
        self._formula: Optional[Comparison] = None

    @property
    def formula(self) -> Comparison:
        if self._formula is None:
            variables = self.variables
            # ``0.0 - bound``, not ``-bound``: a zero bound must give the
            # +0.0 constant ``expr <= 0`` gives, or the formula key differs.
            self._formula = Comparison(
                LinExpr(
                    {
                        variables[j]: coef
                        for j, coef in zip(self.columns.tolist(), self.coefs.tolist())
                    },
                    0.0 - self.bound,
                ),
                Sense.LE,
            )
        return self._formula

    def __repr__(self) -> str:
        return f"Cut({self.description or self.formula!r})"


def exclude_candidate_cut(
    mapping_template: MappingTemplate, candidate: CandidateArchitecture
) -> Cut:
    """No-good cut excluding exactly one structural assignment:
    ``sum(selected) - sum(unselected) <= |selected| - 1``."""
    columns = mapping_template.structural_columns
    point = columns.point(candidate)
    selected = np.flatnonzero(point >= 0.5)
    unselected = np.flatnonzero(point < 0.5)
    return Cut(
        np.concatenate([selected, unselected]),
        np.concatenate([np.ones(len(selected)), -np.ones(len(unselected))]),
        float(len(selected) - 1),
        columns.variables,
        description="accepted-solution no-good",
    )


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

    encoder.prefix = "extra"
    for formula in extra_constraints:
        encoder.enforce(formula)
    if break_symmetry:
        encoder.prefix = "sym"
        for formula in symmetry_breaking_constraints(mapping_template):
            encoder.enforce(formula)

    model.set_objective(cost_expression(mapping_template), minimize=True)
    return model
