"""Lazy cut activation changes the MILP size, never the answer.

The exploration loop keeps emitted certificate cuts in a
:class:`~repro.explore.cut_pool.CutPool` until a candidate violates one.
Pinned here, per case study and backend:

* the returned architecture satisfies every emitted cut, pooled or not;
* re-solving the Problem-2 MILP from scratch with *every* emitted cut
  returns the explored optimum (the pooled cuts were never needed);
* the pool flushes at most once per run (the one-way switch to eager
  activation), and on RPL most cuts stay out of the model.

Plus unit tests of the pool's own row evaluation against
``Formula.evaluate`` of the same cuts.
"""

import numpy as np
import pytest

from repro.arch.architecture import CandidateArchitecture
from repro.casestudies import epn, rpl, wsn
from repro.explore.cut_pool import CutPool
from repro.explore.encoding import Cut, build_candidate_milp
from repro.explore.engine import ContrArcExplorer, ExplorationStatus
from repro.solver.feasibility import get_backend

CASES = [
    ("rpl(1,1)", lambda: rpl.build_problem(1, 1), "scipy"),
    ("rpl(2,2)", lambda: rpl.build_problem(2, 2), "scipy"),
    ("epn(1,0,0)", lambda: epn.build_problem(1, 0, 0), "scipy"),
    ("epn(2,1,0)", lambda: epn.build_problem(2, 1, 0), "scipy"),
    ("epn(1,1,1)", lambda: epn.build_problem(1, 1, 1), "scipy"),
    ("wsn(1,1,1)", lambda: wsn.build_problem(1, 1, 1), "scipy"),
    ("rpl(1,1) native", lambda: rpl.build_problem(1, 1), "native"),
]

_RUNS = {}


def _run(name, builder, backend):
    if name not in _RUNS:
        mapping_template, specification = builder()
        result = ContrArcExplorer(
            mapping_template,
            specification,
            backend=backend,
            max_iterations=2000,
            profile=True,
        ).explore()
        _RUNS[name] = (result, mapping_template, specification)
    return _RUNS[name]


@pytest.mark.parametrize("name,builder,backend", CASES, ids=[c[0] for c in CASES])
class TestLazyActivationIsSound:
    def test_architecture_satisfies_every_emitted_cut(self, name, builder, backend):
        result, _, _ = _run(name, builder, backend)
        assert result.status is ExplorationStatus.OPTIMAL
        assert result.cuts
        values = result.architecture.structural_assignment()
        violated = [cut for cut in result.cuts if not cut.formula.evaluate(values)]
        assert violated == []

    def test_full_cut_set_has_the_same_optimum(self, name, builder, backend):
        result, mapping_template, specification = _run(name, builder, backend)
        model = build_candidate_milp(
            mapping_template, specification, cuts=result.cuts
        )
        solved = get_backend("scipy")(model)
        assert solved.is_optimal
        assert solved.objective == pytest.approx(result.cost)

    def test_pool_flushes_at_most_once(self, name, builder, backend):
        result, _, _ = _run(name, builder, backend)
        solves = result.stats.phase_profile["counts"]["milp_solve"]
        assert result.stats.num_iterations <= solves
        assert solves <= result.stats.num_iterations + 1


def test_rpl_keeps_most_cuts_out_of_the_model():
    # Eager activation added 992 rows on RPL(2,2); lazily about 30.
    result, _, _ = _run(*CASES[1])
    stats = result.stats
    added_rows = stats.final_milp_constraints - stats.milp_constraints
    assert stats.total_cuts > 500
    assert added_rows < stats.total_cuts // 10


# -- CutPool unit tests --------------------------------------------------------


def _row_cut(columns, *atoms):
    """A cut carrying rows: ``(variables, coef, bound)`` atoms."""
    index = {var: j for j, var in enumerate(columns.variables)}
    return Cut.from_rows(
        tuple(
            (np.array([index[var] for var in variables]), coef, bound)
            for variables, coef, bound in atoms
        ),
        columns.variables,
        None,
        "",
    )


def _candidate_and_cuts():
    """RPL(2,2)'s first candidate, one selected and one unselected edge
    key, and cuts of every shape the pool handles."""
    mapping_template, specification = rpl.build_problem(2, 2)
    solved = get_backend("scipy")(
        build_candidate_milp(mapping_template, specification)
    )
    candidate = CandidateArchitecture.from_assignment(
        mapping_template, solved.assignment
    )
    columns = mapping_template.structural_columns
    edge_vars = mapping_template.edge_vars()
    unselected_keys = [
        key for key in edge_vars if key not in set(candidate.selected_edges)
    ]
    selected = edge_vars[candidate.selected_edges[0]]
    unselected = edge_vars[unselected_keys[0]]
    grown = [edge_vars[key] for key in unselected_keys[:2]]
    cuts = {
        "violated": _row_cut(columns, ([selected], 1.0, 0.0)),
        "held": _row_cut(columns, ([unselected], 1.0, 0.0)),
        "or_held": _row_cut(
            columns, ([selected], 1.0, 0.0), ([unselected], 1.0, 0.0)
        ),
        "or_violated": _row_cut(
            columns, ([selected], 1.0, 0.0), (grown, -1.0, -1.0)
        ),
        # Cuts that carry only a formula, even a row-shaped one.
        "opaque": Cut(~(selected.to_expr() <= 0)),
        "opaque_eq": Cut((selected + unselected).eq(1)),
        "opaque_le": Cut(unselected.to_expr() <= 0),
    }
    return mapping_template, candidate, unselected_keys[0], cuts


class TestCutPool:
    def test_offer_agrees_with_formula_evaluate(self):
        mapping_template, candidate, _, cuts = _candidate_and_cuts()
        values = candidate.structural_assignment()
        pool = CutPool(mapping_template)
        offered = list(cuts.values())
        activate = pool.offer(offered, candidate)
        expected = [
            cut
            for name, cut in cuts.items()
            if name.startswith("opaque") or not cut.formula.evaluate(values)
        ]
        assert activate == expected
        assert len(pool) == len(offered) - len(expected)

    def test_opaque_cuts_are_activated_not_pooled(self):
        mapping_template, candidate, _, cuts = _candidate_and_cuts()
        pool = CutPool(mapping_template)
        # All hold here, but the pool evaluates only rows.
        opaque = [cuts["opaque"], cuts["opaque_eq"], cuts["opaque_le"]]
        assert pool.offer(opaque, candidate) == opaque
        assert len(pool) == 0

    def test_violated_by_and_drain(self):
        mapping_template, candidate, unselected, cuts = _candidate_and_cuts()
        pool = CutPool(mapping_template)
        assert not pool.violated_by(candidate)
        pool.offer([cuts["held"], cuts["or_held"]], candidate)
        assert not pool.violated_by(candidate)
        # Selecting the edge the pooled cuts forbid violates both.
        grown = CandidateArchitecture(
            mapping_template,
            candidate.selected_edges + [unselected],
            candidate.selected_impls,
        )
        assert pool.violated_by(grown)
        assert pool.drain() == [cuts["held"], cuts["or_held"]]
        assert len(pool) == 0
        assert not pool.violated_by(grown)
