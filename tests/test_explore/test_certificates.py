"""Tests for Algorithm 2 (subgraph-isomorphism certificate generation)."""

import numpy as np
import pytest

from repro.arch.architecture import CandidateArchitecture
from repro.casestudies import epn, rpl
from repro.explore.certificates import generate_cuts, implementation_search
from repro.explore.cut_pool import _Block
from repro.explore.engine import ContrArcExplorer, ExplorationStatus
from repro.explore.refinement_check import RefinementChecker
from repro.runtime.job import SCENARIOS


def _violating_candidate(mt, worker="w1"):
    lib = mt.library
    return CandidateArchitecture(
        mt,
        [("src", worker), (worker, "sink")],
        {
            "src": lib.get("src_std"),
            worker: lib.get("w_slow"),
            "sink": lib.get("sink_std"),
        },
    )


@pytest.fixture
def violation(problem):
    mt, spec = problem
    checker = RefinementChecker(mt, spec)
    candidate = _violating_candidate(mt)
    violation = checker.check(candidate)
    assert violation is not None
    return mt, candidate, violation


class TestImplementationSearch:
    def test_widening_includes_worse_only(self, violation):
        mt, candidate, v = violation
        widened = implementation_search(
            mt, v.sub_architecture.implementations(), v.viewpoint
        )
        # w_slow has the worst latency: widened set is itself.
        assert [i.name for i in widened["w1"]] == ["w_slow"]
        # src/sink implementations carry no latency: irrelevant.
        assert widened["src"] is None
        assert widened["sink"] is None

    def test_widening_from_middle_implementation(self, problem):
        mt, spec = problem
        checker = RefinementChecker(mt, spec)
        lib = mt.library
        candidate = CandidateArchitecture(
            mt,
            [("src", "w1"), ("w1", "sink")],
            {
                "src": lib.get("src_std"),
                "w1": lib.get("w_mid"),
                "sink": lib.get("sink_std"),
            },
        )
        # Force a violation context by shrinking the deadline via the
        # already-generated spec: instead, reuse the viewpoint directly.
        from repro.contracts.viewpoints import TIMING

        widened = implementation_search(
            mt, {"w1": lib.get("w_mid")}, TIMING
        )
        assert {i.name for i in widened["w1"]} == {"w_mid", "w_slow"}

    def test_no_widening_mode(self, violation):
        mt, candidate, v = violation
        widened = implementation_search(
            mt, v.sub_architecture.implementations(), v.viewpoint, widen=False
        )
        assert [i.name for i in widened["w1"]] == ["w_slow"]
        assert [i.name for i in widened["src"]] == ["src_std"]


class TestCutGeneration:
    def test_identity_embedding_always_cut(self, violation):
        mt, candidate, v = violation
        cuts = generate_cuts(mt, candidate, v, use_isomorphism=False)
        assert len(cuts) == 1
        # The current candidate must violate its own exclusion cut.
        assignment = candidate.structural_assignment()
        assert not cuts[0].formula.evaluate(assignment)

    def test_isomorphism_covers_parallel_worker(self, violation):
        mt, candidate, v = violation
        cuts = generate_cuts(mt, candidate, v, use_isomorphism=True)
        # Paths through w1 and w2 are isomorphic -> 2 cuts.
        assert len(cuts) == 2
        # The twin candidate (same impls routed through w2) is excluded.
        twin = _violating_candidate(mt, worker="w2")
        twin_assignment = twin.structural_assignment()
        assert any(
            not cut.formula.evaluate(twin_assignment) for cut in cuts
        )

    def test_cuts_do_not_exclude_valid_candidates(self, violation):
        mt, candidate, v = violation
        cuts = generate_cuts(mt, candidate, v, use_isomorphism=True)
        lib = mt.library
        good = CandidateArchitecture(
            mt,
            [("src", "w1"), ("w1", "sink")],
            {
                "src": lib.get("src_std"),
                "w1": lib.get("w_fast"),
                "sink": lib.get("sink_std"),
            },
        )
        assignment = good.structural_assignment()
        assert all(cut.formula.evaluate(assignment) for cut in cuts)

    def test_cut_descriptions_mention_viewpoint(self, violation):
        mt, candidate, v = violation
        cuts = generate_cuts(mt, candidate, v)
        assert all("timing" in cut.description for cut in cuts)

    def test_whole_candidate_cut_allows_growth(self, violation):
        mt, candidate, v = violation
        # This violation covers the entire candidate, so the cut's
        # boundary edges enter negated; a larger architecture that
        # contains the bad fragment plus extra structure must survive.
        assert v.sub_architecture.is_whole_candidate
        cuts = generate_cuts(mt, candidate, v, use_isomorphism=False)
        lib = mt.library
        bigger = CandidateArchitecture(
            mt,
            [
                ("src", "w1"),
                ("w1", "sink"),
                ("src", "w2"),
                ("w2", "sink"),
            ],
            {
                "src": lib.get("src_std"),
                "w1": lib.get("w_slow"),
                "w2": lib.get("w_fast"),
                "sink": lib.get("sink_std"),
            },
        )
        assignment = bigger.structural_assignment()
        assert all(cut.formula.evaluate(assignment) for cut in cuts)


# -- rows and formulas agree on real runs -----------------------------------------

AGREEMENT_RUNS = {
    f"epn{sizes} {scenario}": (lambda s=sizes: epn.build_problem(*s), scenario)
    for sizes in [(1, 0, 0), (2, 0, 0), (1, 1, 0)]
    for scenario in ("complete", "only-iso")
}
AGREEMENT_RUNS["rpl(2,2)"] = (lambda: rpl.build_problem(2, 2), "complete")


def _emitted(build, scenario, monkeypatch):
    """The run's result and every (candidate, cuts) of its
    ``generate_cuts`` calls, duplicates included."""
    calls = []

    def recording(mapping_template, candidate, violation, **kwargs):
        cuts = generate_cuts(mapping_template, candidate, violation, **kwargs)
        calls.append((candidate, cuts))
        return cuts

    monkeypatch.setattr("repro.explore.engine.generate_cuts", recording)
    mt, spec = build()
    result = ContrArcExplorer(
        mt, spec, max_iterations=200, **SCENARIOS[scenario]
    ).explore()
    return mt, result, calls


@pytest.mark.parametrize("name", sorted(AGREEMENT_RUNS))
def test_row_verdicts_match_formula_evaluate(name, monkeypatch):
    mt, result, calls = _emitted(*AGREEMENT_RUNS[name], monkeypatch)
    assert result.status is ExplorationStatus.OPTIMAL
    columns = mt.structural_columns
    points = np.random.default_rng(17).integers(0, 2, (50, len(columns.variables)))
    for candidate, cuts in calls:
        assert all(len(cut.columns) == len(cut.coefs) > 0 for cut in cuts)
        block = _Block.of(cuts, len(columns.variables))
        at_candidate = block.satisfied(columns.point(candidate)).tolist()
        values = candidate.structural_assignment()
        assert at_candidate == [cut.formula.evaluate(values) for cut in cuts]
        for point in points:
            values = dict(zip(columns.variables, point.tolist()))
            assert block.satisfied(point).tolist() == [
                cut.formula.evaluate(values) for cut in cuts
            ]
    if name == "epn(2, 0, 0) only-iso":
        # Every cut is a whole-candidate no-good: one row whose boundary
        # edges enter negated.
        assert len(result.cuts) == 96
        assert all((cut.coefs < 0).any() for cut in result.cuts)


def test_rpl_2_2_trajectory_is_pinned():
    mt, spec = rpl.build_problem(2, 2)
    result = ContrArcExplorer(mt, spec, max_iterations=200).explore()
    stats = result.stats
    assert result.cost == 51
    assert stats.num_iterations == 19
    assert stats.total_cuts == 1024
    assert stats.final_milp_constraints == 1098
