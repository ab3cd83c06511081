"""Tests for compositional (subsystem-by-subsystem) exploration."""

import pytest

from repro.exceptions import ExplorationError
from repro.explore.compositional import (
    CompositionalExplorer,
    CompositionalResult,
    SubsystemStage,
)
from tests.test_explore.conftest import build_library, build_spec, build_template
from repro.arch.template import MappingTemplate


def _stage(name, deadline=7.0, check=None):
    def build(previous):
        template = build_template()
        mt = MappingTemplate(template, build_library(), time_bound=100.0)
        return mt, build_spec(deadline=deadline)

    return SubsystemStage(name, build, check)


class TestSequencing:
    def test_two_stages_run_in_order(self):
        seen = []

        def make(name):
            def build(previous):
                seen.append((name, tuple(previous)))
                template = build_template()
                mt = MappingTemplate(
                    template, build_library(), time_bound=100.0
                )
                return mt, build_spec()

            return SubsystemStage(name, build)

        explorer = CompositionalExplorer([make("a"), make("b")])
        result = explorer.explore()
        assert result.is_optimal
        assert seen[0] == ("a", ())
        assert seen[1] == ("b", ("a",))
        assert result.total_cost == pytest.approx(2 * 7.0)
        assert result.total_iterations >= 2

    def test_failure_stops_pipeline(self):
        stages = [_stage("ok"), _stage("broken", deadline=1.0), _stage("never")]
        result = CompositionalExplorer(stages).explore()
        assert not result.is_optimal
        assert set(result.stage_results) == {"ok", "broken"}
        assert result.total_cost is None

    def test_compatibility_check_runs(self):
        calls = []

        def check(results):
            calls.append(sorted(results))
            return True

        result = CompositionalExplorer(
            [_stage("a", check=check), _stage("b", check=check)]
        ).explore()
        assert result.compatible
        assert calls == [["a"], ["a", "b"]]

    def test_incompatibility_reported(self):
        result = CompositionalExplorer(
            [_stage("a", check=lambda r: False), _stage("b")]
        ).explore()
        assert not result.compatible
        assert not result.is_optimal
        assert list(result.stage_results) == ["a"]

    def test_validation(self):
        with pytest.raises(ExplorationError):
            CompositionalExplorer([])
        with pytest.raises(ExplorationError):
            CompositionalExplorer([_stage("dup"), _stage("dup")])

    def test_total_time_covers_the_stages(self):
        result = CompositionalExplorer([_stage("a"), _stage("b")]).explore()
        stage_times = [r.stats.total_time for r in result.stage_results.values()]
        assert all(seconds > 0 for seconds in stage_times)
        assert result.total_time >= sum(stage_times)

    def test_result_repr(self):
        result = CompositionalExplorer([_stage("a")]).explore()
        assert "a" in repr(result)
