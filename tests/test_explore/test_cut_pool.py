"""Lazy cut activation changes the MILP size, never the answer.

The exploration loop keeps emitted certificate cuts in a
:class:`~repro.explore.cut_pool.CutPool` until a candidate violates one.
Pinned here, per case study, and on RPL(1,1) also without scipy's
vendored HiGHS binding (every solve a ``scipy.optimize.milp`` run):

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
from repro.solver import scipy_backend
from repro.solver.encoder import FormulaEncoder
from repro.solver.feasibility import get_backend

#: ``(name, builder, milp_fallback)``.
CASES = [
    ("rpl(1,1)", lambda: rpl.build_problem(1, 1), False),
    ("rpl(2,2)", lambda: rpl.build_problem(2, 2), False),
    ("epn(1,0,0)", lambda: epn.build_problem(1, 0, 0), False),
    ("epn(2,1,0)", lambda: epn.build_problem(2, 1, 0), False),
    ("epn(1,1,1)", lambda: epn.build_problem(1, 1, 1), False),
    ("wsn(1,1,1)", lambda: wsn.build_problem(1, 1, 1), False),
    ("rpl(1,1) scipy-fallback", lambda: rpl.build_problem(1, 1), True),
]

_RUNS = {}


def _run(name, builder, milp_fallback):
    if name not in _RUNS:
        mapping_template, specification = builder()
        with pytest.MonkeyPatch.context() as patch:
            if milp_fallback:
                patch.setattr(scipy_backend, "_highs_core", None)
            result = ContrArcExplorer(
                mapping_template,
                specification,
                max_iterations=2000,
                profile=True,
            ).explore()
        _RUNS[name] = (result, mapping_template, specification)
    return _RUNS[name]


@pytest.mark.parametrize(
    "name,builder,milp_fallback", CASES, ids=[c[0] for c in CASES]
)
class TestLazyActivationIsSound:
    def test_architecture_satisfies_every_emitted_cut(self, name, builder, milp_fallback):
        result, _, _ = _run(name, builder, milp_fallback)
        assert result.status is ExplorationStatus.OPTIMAL
        assert result.cuts
        values = result.architecture.structural_assignment()
        violated = [cut for cut in result.cuts if not cut.formula.evaluate(values)]
        assert violated == []

    def test_full_cut_set_has_the_same_optimum(self, name, builder, milp_fallback):
        result, mapping_template, specification = _run(name, builder, milp_fallback)
        model = build_candidate_milp(mapping_template, specification)
        encoder = FormulaEncoder(model, prefix="cut")
        for cut in result.cuts:
            encoder.enforce(cut.formula)
        solved = get_backend("scipy")(model)
        assert solved.is_optimal
        assert solved.objective == pytest.approx(result.cost)

    def test_pool_flushes_at_most_once(self, name, builder, milp_fallback):
        result, _, _ = _run(name, builder, milp_fallback)
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


def _row_cut(columns, variables, coefs, bound):
    """The cut ``sum(coefs * variables) <= bound``."""
    index = {var: j for j, var in enumerate(columns.variables)}
    return Cut(
        np.array([index[var] for var in variables]),
        np.array(coefs, dtype=float),
        bound,
        columns.variables,
    )


def _candidate_and_cuts():
    """RPL(2,2)'s first candidate, one unselected edge key, and held and
    violated cuts with and without negative coefficients."""
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
        "violated": _row_cut(columns, [selected], [1], 0.0),
        "held": _row_cut(columns, [unselected], [1], 0.0),
        "pair_held": _row_cut(columns, [selected, unselected], [1, 1], 1.0),
        # A no-good row with negated (unselected) boundary edges.
        "negated_violated": _row_cut(
            columns, [selected, *grown], [1, -1, -1], 0.0
        ),
    }
    return mapping_template, candidate, unselected_keys[0], cuts


class TestCutPool:
    def test_offer_agrees_with_formula_evaluate(self):
        mapping_template, candidate, _, cuts = _candidate_and_cuts()
        values = candidate.structural_assignment()
        pool = CutPool(mapping_template)
        offered = list(cuts.values())
        activate = pool.offer(offered, candidate)
        expected = [cut for cut in offered if not cut.formula.evaluate(values)]
        assert expected == [cuts["violated"], cuts["negated_violated"]]
        assert activate == expected
        assert len(pool) == len(offered) - len(expected)

    def test_violated_by_and_drain(self):
        mapping_template, candidate, unselected, cuts = _candidate_and_cuts()
        pool = CutPool(mapping_template)
        assert not pool.violated_by(candidate)
        pool.offer([cuts["held"], cuts["pair_held"]], candidate)
        assert not pool.violated_by(candidate)
        # Selecting the edge the pooled cuts forbid violates both.
        grown = CandidateArchitecture(
            mapping_template,
            candidate.selected_edges + [unselected],
            candidate.selected_impls,
        )
        assert pool.violated_by(grown)
        assert pool.drain() == [cuts["held"], cuts["pair_held"]]
        assert len(pool) == 0
        assert not pool.violated_by(grown)
