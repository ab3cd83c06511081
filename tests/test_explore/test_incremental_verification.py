"""Regression: dependency-sliced verification changes work, never answers.

With ``incremental=True`` (the default) the checker fingerprints
every (viewpoint, path) plan entry by the candidate-assignment slice its
contracts depend on, and carries the previous candidate's verdict
forward when the slice is unchanged. Everything observable must stay
bit-identical to from-scratch verification: status, optimal cost,
iteration count, cut keys in order, the per-iteration violation sequence
and candidate costs. These tests pin that on the explore-mini fixture
plus the RPL, EPN and WSN case studies, and pin the slicing semantics
themselves: a mutation inside an entry's dependency slice forces
re-verification, a mutation outside it never does.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.casestudies import epn, rpl, wsn
from repro.explore.engine import ContrArcExplorer, ExplorationStatus
from repro.explore.incremental import IterationDelta
from repro.explore.refinement_check import (
    CACHE_HIT,
    CARRIED,
    VERIFIED,
    RefinementChecker,
    index_by_name,
)
from repro.runtime.keys import formula_key


def _run(builder, sliced, **engine):
    mapping_template, specification = builder()
    explorer = ContrArcExplorer(
        mapping_template, specification, max_iterations=2000, **engine
    )
    if not sliced:
        # The same MILP session, so the same candidate trajectory; only
        # the walk's optional slicing step is off.
        explorer.checker.slicer = explorer.checker.delta = None
    return explorer.explore()


def _fingerprint(result):
    """Everything that must match between sliced and scratch runs."""
    return {
        "status": result.status,
        "cost": result.cost,
        "iterations": result.stats.num_iterations,
        "cut_keys": [formula_key(cut.formula) for cut in result.cuts],
        "violations": [
            record.violations for record in result.stats.iterations
        ],
        "costs": [
            record.candidate_cost for record in result.stats.iterations
        ],
    }


def _assert_equivalent(builder, **engine):
    scratch = _fingerprint(_run(builder, False, **engine))
    sliced = _fingerprint(_run(builder, True, **engine))
    assert sliced == scratch, "sliced run diverged from scratch"
    return scratch


class TestSlicedMatchesScratch:
    def test_explore_mini(self, problem):
        scratch = _assert_equivalent(lambda: problem)
        assert scratch["status"] is ExplorationStatus.OPTIMAL

    def test_rpl(self):
        scratch = _assert_equivalent(lambda: rpl.build_problem(1, 1))
        assert scratch["status"] is ExplorationStatus.OPTIMAL

    def test_epn(self):
        scratch = _assert_equivalent(lambda: epn.build_problem(1, 0, 0))
        assert scratch["status"] is ExplorationStatus.OPTIMAL
        assert scratch["cost"] == pytest.approx(25.0)

    def test_wsn(self):
        scratch = _assert_equivalent(lambda: wsn.build_problem(1, 1, tiers=1))
        assert scratch["status"] is ExplorationStatus.OPTIMAL

    def test_epn_no_decomposition(self):
        # Whole-candidate entries carry the path *set* in their
        # fingerprint; this pins the no-decomposition shape too.
        _assert_equivalent(
            lambda: epn.build_problem(1, 0, 0), use_decomposition=False
        )

    def test_infeasible(self, impossible_problem):
        scratch = _assert_equivalent(lambda: impossible_problem)
        assert scratch["status"] is ExplorationStatus.INFEASIBLE


class TestProvenance:
    def test_sliced_run_records_provenance(self):
        from repro.runtime.oracle import OracleCache

        result = _run(
            lambda: rpl.build_problem(2, 2), True, oracle=OracleCache()
        )
        tallies = [
            r.verification for r in result.stats.iterations if r.verification
        ]
        assert tallies, "incremental run recorded no provenance"
        for tally in tallies:
            assert tally["checks"] == (
                tally[VERIFIED] + tally[CACHE_HIT] + tally[CARRIED]
            )
        totals = result.stats.verification
        assert totals["checks"] == sum(t["checks"] for t in tallies)
        # Consecutive candidates repeat queries: some pairs must have
        # been answered from the oracle without a fresh solve.
        assert totals[CACHE_HIT] > 0

    def test_consecutive_candidates_share_slices(self):
        # With lazy cut activation no RPL/EPN run happens to revisit an
        # unchanged slice, so the pair is built by hand (see
        # _rpl_pair). Path B's slice never changes (carried without a
        # query); path A's queries repeat (answered by the oracle).
        from repro.runtime.oracle import OracleCache

        mapping_template, specification, first, second = _rpl_pair()
        checker = RefinementChecker(
            mapping_template,
            specification,
            oracle=OracleCache(),
            incremental=True,
        )
        totals = {"checks": 0, VERIFIED: 0, CACHE_HIT: 0, CARRIED: 0}
        for candidate in (first, second, first):
            checker.check_all(candidate)
            for key, count in checker.last_provenance.items():
                totals[key] += count
        assert totals["checks"] == (
            totals[VERIFIED] + totals[CACHE_HIT] + totals[CARRIED]
        )
        assert totals[CARRIED] > 0
        assert totals[CACHE_HIT] > 0

    def test_scratch_run_records_none(self):
        result = _run(lambda: epn.build_problem(1, 0, 0), False)
        assert result.stats.verification is None
        assert all(r.verification is None for r in result.stats.iterations)

    def test_provenance_survives_dict_roundtrip(self):
        from repro.explore.stats import ExplorationStats

        result = _run(lambda: epn.build_problem(1, 0, 0), True)
        clone = ExplorationStats.from_dict(result.stats.to_dict())
        assert clone.verification == result.stats.verification
        assert clone.to_dict() == result.stats.to_dict()


def _rpl_pair():
    """RPL(2,2)'s first candidate and the same with one path-A machine
    swapped, with the problem they belong to."""
    from repro.arch.architecture import CandidateArchitecture
    from repro.explore.encoding import build_candidate_milp
    from repro.solver.feasibility import get_backend

    mapping_template, specification = rpl.build_problem(2, 2)
    solved = get_backend("scipy")(
        build_candidate_milp(mapping_template, specification)
    )
    first = CandidateArchitecture.from_assignment(
        mapping_template, solved.assignment
    )
    swapped = dict(first.selected_impls)
    swapped["m1_A_1"] = mapping_template.library.get("m_semi_a")
    second = CandidateArchitecture(
        mapping_template, first.selected_edges, swapped
    )
    return mapping_template, specification, first, second


def _verdicts(violations):
    return [
        (v.viewpoint.name, v.path, v.refinement.failure) for v in violations
    ]


class TestEarlyStop:
    def test_check_stops_at_first_violation_and_commits_nothing(self):
        mapping_template, specification, first, _second = _rpl_pair()
        checker = RefinementChecker(
            mapping_template, specification, incremental=True
        )
        walked = []
        check_entry = checker._check_entry
        checker._check_entry = lambda check: walked.append(check) or check_entry(
            check
        )
        assert checker.check(first) is not None
        entries = checker.plan_outline(first)[2]
        assert len(walked) < len(entries)
        assert checker.last_provenance is None
        assert len(checker.delta) == 0

    def test_uncommitted_walk_then_check_all_matches_fresh_checker(self):
        # check() abandons its walk at the first violation, so the delta
        # still holds the last fully walked candidate. Every later
        # check_all must report what a fresh checker reports.
        mapping_template, specification, first, second = _rpl_pair()
        checker = RefinementChecker(
            mapping_template, specification, incremental=True
        )
        sequence = [
            (checker.check, first),
            (checker.check_all, second),
            (checker.check_all, first),
            (checker.check, second),
            (checker.check_all, second),
            (checker.check_all, first),
        ]
        for walk, candidate in sequence:
            fresh = RefinementChecker(mapping_template, specification)
            if walk == checker.check:
                got = walk(candidate)
                want = fresh.check(candidate)
                assert _verdicts([got]) == _verdicts([want])
            else:
                assert _verdicts(walk(candidate)) == _verdicts(
                    fresh.check_all(candidate)
                )
        assert checker.last_provenance[CARRIED] > 0


def _mini_plan():
    """A solved RPL candidate with its outline plan and slicer."""
    mapping_template, specification = rpl.build_problem(1, 1)
    from repro.arch.architecture import CandidateArchitecture
    from repro.explore.encoding import build_candidate_milp
    from repro.solver.feasibility import get_backend

    solved = get_backend("scipy")(
        build_candidate_milp(mapping_template, specification)
    )
    candidate = CandidateArchitecture.from_assignment(
        mapping_template, solved.assignment
    )
    checker = RefinementChecker(
        mapping_template, specification, incremental=True
    )
    assignment, paths, entries = checker.plan_outline(candidate)
    return checker, index_by_name(assignment), paths, entries


_PLAN_CACHE = {}


def _plan():
    if "plan" not in _PLAN_CACHE:
        _PLAN_CACHE["plan"] = _mini_plan()
    return _PLAN_CACHE["plan"]


def _slice_names(fingerprint, out=None):
    """Variable names a fingerprint's restricted assignments mention."""
    if out is None:
        out = set()
    if isinstance(fingerprint, tuple):
        if (
            len(fingerprint) == 2
            and isinstance(fingerprint[0], str)
            and isinstance(fingerprint[1], float)
        ):
            out.add(fingerprint[0])
        else:
            for item in fingerprint:
                _slice_names(item, out)
    return out


class TestDependencySlicing:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_mutation_forces_reverification_iff_in_slice(self, data):
        """The property behind carrying: fingerprints track exactly the
        dependency slice. Mutating a variable inside an entry's slice
        changes its fingerprint (so the delta re-verifies); mutating any
        other variable leaves it byte-identical (so the verdict carries).
        """
        checker, values, paths, entries = _plan()
        name = data.draw(st.sampled_from(sorted(values)))
        offset = data.draw(st.integers(min_value=1, max_value=5))
        mutated = dict(values)
        mutated[name] = values[name] + float(offset)
        for entry in entries:
            before = checker.slicer.fingerprint(entry, values, paths)
            after = checker.slicer.fingerprint(entry, mutated, paths)
            if name in _slice_names(before):
                assert after != before, (
                    f"{entry}: in-slice mutation of {name} kept fingerprint"
                )
            else:
                assert after == before, (
                    f"{entry}: unrelated mutation of {name} changed fingerprint"
                )

    def test_delta_carries_only_unchanged_slices(self):
        checker, values, paths, entries = _plan()
        entry = entries[0]
        fingerprint = checker.slicer.fingerprint(entry, values, paths)
        verdict = object()  # any prior result stands in
        delta = IterationDelta()
        delta.commit({entry.pair_id: (fingerprint, verdict)})
        assert delta.match(entry.pair_id, fingerprint) is verdict
        # Mutate a variable the entry depends on: no carry.
        name = sorted(_slice_names(fingerprint))[0]
        mutated = dict(values, **{name: values[name] + 1.0})
        changed = checker.slicer.fingerprint(entry, mutated, paths)
        assert delta.match(entry.pair_id, changed) is None
        # Unknown pairs never match, and reset drops everything.
        assert delta.match(("other", None), fingerprint) is None
        delta.reset()
        assert delta.match(entry.pair_id, fingerprint) is None

    def test_supports_are_cached(self):
        checker, values, paths, entries = _plan()
        checker.slicer.fingerprint(entries[0], values, paths)
        cached = dict(checker.slicer._supports)
        checker.slicer.fingerprint(entries[0], values, paths)
        assert checker.slicer._supports == cached

