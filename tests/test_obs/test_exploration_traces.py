"""End-to-end trace guarantees on the explore-mini fixture.

The acceptance bar for the observability layer:

* **well-formedness** — every span closed, every child interval inside
  its parent's, exactly one root (the run span);
* **structural stability** — run/iteration/refinement_check span ids
  are identical across two runs of the same problem;
* **agreement** — trace-derived per-phase totals equal
  ``stats.phase_profile``'s exactly (both are read from the same spans);
* **derivation** — every iteration time and ``stats.total_time`` is
  the sum of the matching spans' durations, traced or not;
* **non-interference** — binding a tracer changes no result.
"""

import pytest

from repro.casestudies import epn
from repro.explore.engine import ContrArcExplorer, ExplorationStatus
from repro.obs import InMemorySink, Tracer
from repro.obs.analyze import Trace, phase_totals
from repro.runtime.ledger import canonical_record

from tests.test_explore.conftest import build_library, build_spec, build_template


def _problem():
    from repro.arch.template import MappingTemplate

    template = build_template()
    return (
        MappingTemplate(template, build_library(), time_bound=100.0),
        build_spec(),
    )


def _traced_run():
    mapping_template, specification = _problem()
    sink = InMemorySink()
    tracer = Tracer([sink])
    explorer = ContrArcExplorer(mapping_template, specification, tracer=tracer)
    result = explorer.explore()
    tracer.finish()
    return result, Trace(sink.spans, metrics=sink.metrics, meta=sink.meta)


@pytest.fixture(scope="module")
def traced_run():
    return _traced_run()


class TestWellFormedness:
    def test_every_span_closed(self, traced_run):
        _, trace = traced_run
        assert trace.spans, "traced run produced no spans"
        for span in trace.spans:
            assert span["end"] is not None, f"unclosed span {span['name']}"
            assert "unclosed" not in span["attrs"]
            assert span["end"] >= span["start"]

    def test_child_intervals_within_parent(self, traced_run):
        _, trace = traced_run
        slack = 1e-6  # float rounding across time.time() reads
        for span in trace.spans:
            parent = trace.by_id.get(span["parent"])
            if parent is None:
                continue
            assert span["start"] >= parent["start"] - slack, span["name"]
            assert span["end"] <= parent["end"] + slack, span["name"]

    def test_single_root_is_the_run_span(self, traced_run):
        _, trace = traced_run
        roots = [s for s in trace.spans if s["parent"] is None]
        assert [r["name"] for r in roots] == ["run"]

    def test_span_ids_unique(self, traced_run):
        _, trace = traced_run
        ids = [s["id"] for s in trace.spans]
        assert len(ids) == len(set(ids))


class TestStructuralStability:
    def _ids(self, trace, name):
        return {s["id"] for s in trace.named(name)}

    @pytest.mark.parametrize(
        "name", ["run", "iteration", "refinement_check"]
    )
    def test_ids_stable_across_runs(self, traced_run, name):
        reference = self._ids(traced_run[1], name)
        assert reference, f"no {name} spans recorded"
        assert self._ids(_traced_run()[1], name) == reference

    def test_run_reaches_the_optimum(self, traced_run):
        assert traced_run[0].status is ExplorationStatus.OPTIMAL


class TestAgreement:
    def test_phase_totals_match_stats_profile(self, traced_run):
        result, trace = traced_run
        profile = result.stats.phase_profile
        trace_totals = phase_totals(trace)
        assert set(trace_totals) == set(profile["totals"])
        for name, (seconds, calls) in trace_totals.items():
            assert calls == profile["counts"][name]
            assert seconds == profile["totals"][name], name

    def test_metrics_snapshot_carries_oracle_counters(self, traced_run):
        _, trace = traced_run
        counters = trace.metrics["counters"]
        assert "oracle_misses" in counters
        assert counters["oracle_misses"] > 0


class TestDerivation:
    """Stats times are read back from the phase spans, not timed apart."""

    _FIELDS = {
        "milp_time": ("matrix_build", "milp_solve"),
        "refinement_time": ("refinement",),
        "certificate_time": ("certificate_build",),
    }

    def test_times_are_span_sums(self):
        mapping_template, specification = epn.build_problem(1, 0, 0)
        sink = InMemorySink()
        tracer = Tracer([sink])
        result = ContrArcExplorer(
            mapping_template, specification, tracer=tracer
        ).explore()
        tracer.finish()
        trace = Trace(sink.spans, metrics=sink.metrics, meta=sink.meta)

        (run,) = trace.named("run")
        assert result.stats.total_time == run["duration"]
        iterations = sorted(
            trace.named("iteration"), key=lambda s: s["attrs"]["index"]
        )
        assert len(iterations) == result.stats.num_iterations
        for record, iteration in zip(result.stats.iterations, iterations):
            children = [
                s for s in trace.spans if s["parent"] == iteration["id"]
            ]
            for field, phases in self._FIELDS.items():
                expected = sum(
                    s["duration"] for s in children if s["name"] in phases
                )
                assert getattr(record, field) == pytest.approx(
                    expected, rel=1e-9, abs=1e-12
                ), (record.index, field)

    def test_untraced_run_is_still_timed(self):
        mapping_template, specification = epn.build_problem(1, 0, 0)
        stats = ContrArcExplorer(mapping_template, specification).explore().stats
        assert stats.milp_time > 0
        assert stats.refinement_time > 0
        assert stats.total_time >= stats.milp_time + stats.refinement_time


class TestNonInterference:
    def test_tracing_off_records_nothing_and_matches(self):
        mapping_template, specification = _problem()
        plain = ContrArcExplorer(mapping_template, specification).explore()
        traced_result, _ = _traced_run()
        assert plain.cost == traced_result.cost
        assert plain.stats.num_iterations == traced_result.stats.num_iterations

    def test_every_run_profiles_its_own_phases(self):
        # Two runs on one tracer: each run's phase_profile holds that
        # run's phase spans only, and stays out of the canonical record.
        mapping_template, specification = _problem()
        sink = InMemorySink()
        tracer = Tracer([sink])
        explorer = ContrArcExplorer(mapping_template, specification, tracer=tracer)
        for _ in range(2):
            first_span = len(sink.spans)
            result = explorer.explore()
            profile = result.stats.phase_profile
            trace_totals = phase_totals(Trace(sink.spans[first_span:]))
            assert set(trace_totals) == set(profile["totals"])
            for name, (seconds, calls) in trace_totals.items():
                assert calls == profile["counts"][name]
                assert seconds == pytest.approx(profile["totals"][name]), name
            stats = result.stats.to_dict()
            bare = dict(stats)
            del bare["phase_profile"]
            assert canonical_record({"stats": stats}) == canonical_record(
                {"stats": bare}
            )
        tracer.finish()


class TestStatsSurface:
    def test_oracle_cache_in_stats_dict_roundtrip(self):
        from repro.explore.stats import ExplorationStats

        mapping_template, specification = _problem()
        result = ContrArcExplorer(mapping_template, specification).explore()
        data = result.stats.to_dict()
        assert set(data["oracle_cache"]) == {
            "hits",
            "misses",
            "stores",
            "uncacheable",
            "hit_rate",
        }
        restored = ExplorationStats.from_dict(data)
        assert restored.oracle_cache == data["oracle_cache"]
