"""A whole-candidate certificate is one canonical no-good row.

Algorithm 2 must let a strictly larger architecture escape a
whole-candidate certificate, since extra structure may fix a global
violation. The cut used to say so as a two-atom disjunction, "grow, or
exclude":

    sum(edges) + sum(boundary) >= |E| + 1
    OR  sum(edges) + sum(bad mappings) <= |E| + |V| - 1

and now says it as one row with negated boundary edges:

    sum(edges) + sum(bad mappings) - sum(boundary) <= |E| + |V| - 1

The two agree on every 0/1 point that maps each slot to at most one
implementation, which the interconnection contract guarantees. Without
that condition they differ, either way round. The disjunction lives
only here, as the reference.
"""

import functools

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.casestudies import epn
from repro.explore.engine import ContrArcExplorer, ExplorationStatus
from repro.expr.constraints import EVAL_TOL
from repro.runtime.job import SCENARIOS


@functools.lru_cache(maxsize=None)
def _whole_candidate_cuts():
    """The structural columns and every cut with boundary edges of an
    only-iso EPN(2,0,0) run (its widened sets hold up to three bad
    implementations per slot)."""
    mapping_template, specification = epn.build_problem(2, 0, 0)
    result = ContrArcExplorer(
        mapping_template,
        specification,
        max_iterations=200,
        **SCENARIOS["only-iso"],
    ).explore()
    assert result.status is ExplorationStatus.OPTIMAL
    cuts = [cut for cut in result.cuts if (cut.coefs < 0).any()]
    assert cuts
    return mapping_template.structural_columns, cuts


def _row_holds(cut, point):
    return point[cut.columns] @ cut.coefs - cut.bound <= EVAL_TOL


def _disjunction_holds(cut, point, num_edges):
    plus = cut.columns[cut.coefs > 0]
    boundary = cut.columns[cut.coefs < 0]
    edges = plus[plus < num_edges]
    grow = point[edges].sum() + point[boundary].sum() >= len(edges) + 1
    exclude = point[plus].sum() <= cut.bound
    return bool(grow or exclude)


@st.composite
def _cut_and_point(draw, one_per_slot=True):
    """A cut and a 0/1 point near its fragment: the cut's own edges with
    a few edge columns toggled, and per slot a mapping biased towards
    the cut's bad implementations."""
    columns, cuts = _whole_candidate_cuts()
    cut = draw(st.sampled_from(cuts))
    num_edges = len(columns.ends)
    point = np.zeros(len(columns.variables))
    plus = set(cut.columns[cut.coefs > 0].tolist())
    point[[j for j in plus if j < num_edges]] = 1.0
    toggled = draw(st.sets(st.integers(0, num_edges - 1), max_size=4))
    point[list(toggled)] = 1.0 - point[list(toggled)]
    for slot in columns.mapping:
        options = slot[slot >= 0].tolist()
        bad = [j for j in options if j in plus]
        if one_per_slot:
            choices = st.sampled_from([None, *options])
            if bad:
                choices = st.sampled_from(bad) | choices
            chosen = draw(choices)
            if chosen is not None:
                point[chosen] = 1.0
        else:
            for j in options:
                point[j] = float(draw(st.booleans()))
    return cut, point


@settings(max_examples=300, deadline=None)
@given(_cut_and_point())
def test_row_matches_disjunction_with_one_implementation_per_slot(case):
    cut, point = case
    columns, _ = _whole_candidate_cuts()
    assert _row_holds(cut, point) == _disjunction_holds(
        cut, point, len(columns.ends)
    )


@pytest.mark.parametrize("row_verdict", [True, False])
def test_row_and_disjunction_differ_without_that_condition(row_verdict):
    # Two bad implementations on one slot count twice in both forms' sums,
    # so the forms drift apart: e.g. a missing pattern edge is made up
    # for on the row's left side but not in the "grow" atom.
    columns, _ = _whole_candidate_cuts()
    find(
        _cut_and_point(one_per_slot=False),
        lambda case: _row_holds(*case) == row_verdict
        and _disjunction_holds(*case, len(columns.ends)) != row_verdict,
        settings=settings(max_examples=2000, database=None, derandomize=True),
    )
