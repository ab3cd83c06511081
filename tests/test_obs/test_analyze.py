"""Offline analysis: format auto-detection, round-trips, report text."""

import json

from repro.obs import ChromeTraceSink, JsonlSink, Tracer
from repro.obs.analyze import load_trace, phase_totals, render_report


def _record_sample(sink):
    """A tiny but representative trace: run > iteration > phases."""
    with Tracer([sink]) as t:
        with t.span("run", backend="z3") as run:
            run.attrs["status"] = "optimal"
            run.attrs["iterations"] = 1
            with t.span("iteration", index=0) as it:
                it.attrs["cuts_added"] = 2
                with t.span("milp_solve"):
                    pass
                with t.span("refinement"):
                    with t.span(
                        "refinement_check",
                        seq=0,
                        viewpoint="timing",
                        path="src->sink",
                    ):
                        pass
        t.metrics.counter("oracle_hits", 3)
        t.metrics.counter("oracle_misses", 1)
        return t.trace_id


class TestLoadTrace:
    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        trace_id = _record_sample(JsonlSink(path))
        trace = load_trace(path)
        assert trace.meta["trace_id"] == trace_id
        assert sorted(s["name"] for s in trace.spans) == sorted(
            ["run", "iteration", "milp_solve", "refinement", "refinement_check"]
        )
        assert trace.metrics["counters"]["oracle_hits"] == 3

    def test_chrome_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.json")
        trace_id = _record_sample(ChromeTraceSink(path))
        trace = load_trace(path)  # auto-detected from "traceEvents"
        assert trace.meta["trace_id"] == trace_id
        assert len(trace.spans) == 5
        check = next(s for s in trace.spans if s["name"] == "refinement_check")
        assert check["attrs"]["viewpoint"] == "timing"
        assert trace.metrics["counters"]["oracle_misses"] == 1

    def test_formats_agree_on_structure_and_durations(self, tmp_path):
        jsonl_path = str(tmp_path / "t.jsonl")
        chrome_path = str(tmp_path / "t.json")
        sink_a, sink_b = JsonlSink(jsonl_path), ChromeTraceSink(chrome_path)
        with Tracer([sink_a, sink_b]) as t:
            with t.span("run"):
                with t.span("milp_solve"):
                    pass
        a, b = load_trace(jsonl_path), load_trace(chrome_path)
        ids_a = {s["id"]: s["parent"] for s in a.spans}
        ids_b = {s["id"]: s["parent"] for s in b.spans}
        assert ids_a == ids_b
        for span_id in ids_a:
            dur_a = a.by_id[span_id]["duration"]
            dur_b = b.by_id[span_id]["duration"]
            # chrome stores integer microseconds
            assert abs(dur_a - dur_b) < 2e-6


class TestPhaseTotals:
    def test_sums_durations_and_counts(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with Tracer([JsonlSink(path)]) as t:
            with t.span("run"):
                for _ in range(3):
                    with t.span("milp_solve"):
                        pass
        totals = phase_totals(load_trace(path))
        assert set(totals) == {"milp_solve"}
        seconds, calls = totals["milp_solve"]
        assert calls == 3
        assert seconds >= 0.0

    def test_ignores_non_phase_spans(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with Tracer([JsonlSink(path)]) as t:
            with t.span("run"):
                with t.span("iteration", index=0):
                    pass
        assert phase_totals(load_trace(path)) == {}


class TestRenderReport:
    def test_all_sections_present(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        _record_sample(JsonlSink(path))
        report = render_report(load_trace(path))
        for needle in (
            "Per-phase totals",
            "Per-iteration critical path",
            "slowest queries",
            "Cache effectiveness",
            "verification-reuse",
        ):
            assert needle in report

    def test_slowest_table_names_the_viewpoint_origin(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        _record_sample(JsonlSink(path))
        report = render_report(load_trace(path))
        assert "timing [src->sink]" in report

    def test_empty_trace_degrades_gracefully(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        with Tracer([JsonlSink(path)]):
            pass
        report = render_report(load_trace(path))
        assert "no phase spans recorded" in report
        assert "no iteration spans recorded" in report

    def test_report_is_valid_text_for_chrome_traces(self, tmp_path):
        path = str(tmp_path / "trace.json")
        _record_sample(ChromeTraceSink(path))
        # sanity: the file really is a chrome document
        assert "traceEvents" in json.loads((tmp_path / "trace.json").read_text())
        report = render_report(load_trace(path), top=3)
        assert "Per-phase totals" in report

    def test_degrades_without_new_counters(self, tmp_path):
        # A trace recorded before (or without) sliced verification
        # must still render, with an explanatory stub.
        path = str(tmp_path / "trace.jsonl")
        _record_sample(JsonlSink(path))
        report = render_report(load_trace(path))
        assert "no verification-reuse counters" in report


class TestVerificationSection:
    def _record(self, sink):
        with Tracer([sink]) as t:
            with t.span("run"):
                pass
            t.metrics.counter("verify_checks", 20)
            t.metrics.counter("verify_verified", 8)
            t.metrics.counter("verify_cache_hit", 7)
            t.metrics.counter("verify_carried", 5)

    def test_golden_section_text(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        self._record(JsonlSink(path))
        report = render_report(load_trace(path))
        assert "Verification reuse" in report
        assert "carried forward   | 5      | 25.0%" in report
        assert "cache hit         | 7      | 35.0%" in report
        assert "reused (either)   | 12     | 60.0%" in report

    def test_sections_render_from_a_real_run(self, tmp_path):
        # End-to-end: a traced exploration produces the section
        # through ``python -m repro obs``.
        from repro.cli import main

        trace = str(tmp_path / "trace.jsonl")
        assert main(["epn", "--left", "1", "--right", "0", "--trace", trace]) == 0
        report = render_report(load_trace(trace))
        assert "Verification reuse" in report
        assert "no verification-reuse counters" not in report


class TestTornLineTolerance:
    """JSONL traces tolerate the torn final line a killed run leaves."""

    def test_truncated_final_line_skipped_with_warning(self, tmp_path):
        import pytest

        from repro.runtime.telemetry import TruncatedJournalWarning

        path = str(tmp_path / "trace.jsonl")
        _record_sample(JsonlSink(path))
        with open(path, "a", encoding="utf-8") as stream:
            stream.write('{"type": "span", "na')  # SIGKILL mid-write
        with pytest.warns(TruncatedJournalWarning):
            trace = load_trace(path)
        assert len(trace.spans) == 5  # the torn line is dropped, rest kept
        assert trace.metrics["counters"]["oracle_hits"] == 3

    def test_strict_mode_raises(self, tmp_path):
        import pytest

        path = str(tmp_path / "trace.jsonl")
        _record_sample(JsonlSink(path))
        with open(path, "a", encoding="utf-8") as stream:
            stream.write('{"type": "span", "na')
        with pytest.raises(json.JSONDecodeError):
            load_trace(path, strict=True)


class TestQuantileColumns:
    """The phase table surfaces p50/p95/p99 from the histograms."""

    def _record_with_latencies(self, sink):
        with Tracer([sink]) as t:
            with t.span("run") as run:
                run.attrs["status"] = "optimal"
                with t.span("milp_solve"):
                    pass
            for value in (0.05, 0.08, 0.09, 2.0):
                t.metrics.observe("milp_solve_seconds", value)

    def test_phase_table_has_quantiles(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        self._record_with_latencies(JsonlSink(path))
        report = render_report(load_trace(path))
        assert "| p50" in report and "| p95" in report and "| p99" in report
        # p50 of (0.05, 0.08, 0.09, 2.0) covers the 0.1 bucket bound;
        # p95/p99 land in the 2.5 bucket.
        assert "0.10" in report
        assert "2.50" in report

    def test_overflow_bucket_renders_as_gt60(self, tmp_path):
        from repro.obs.analyze import format_quantile

        assert format_quantile(float("inf")) == ">60"
        assert format_quantile(None) == "-"
        path = str(tmp_path / "trace.jsonl")
        with Tracer([JsonlSink(path)]) as t:
            with t.span("milp_solve"):
                pass
            t.metrics.observe("milp_solve_seconds", 90.0)  # past 60s bound
        report = render_report(load_trace(path))
        assert ">60" in report  # and no infinite loop in format_seconds

    def test_phases_without_histograms_show_dashes(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        _record_sample(JsonlSink(path))
        report = render_report(load_trace(path))
        assert "| -" in report


class TestStructuredAnalysis:
    """analyze() bundles every section as dataclasses for renderers."""

    def test_bundle_fields(self, tmp_path):
        from repro.obs.analyze import analyze

        path = str(tmp_path / "trace.jsonl")
        _record_sample(JsonlSink(path))
        analysis = analyze(load_trace(path))
        assert analysis.runs[0].status == "optimal"
        assert analysis.phases[0].calls >= 1
        assert analysis.iterations[0].cuts == 2
        assert analysis.queries[0].origin == "timing [src->sink]"
        oracle = {c.label: c for c in analysis.caches}["oracle"]
        assert oracle.hit_rate == 0.75
        assert analysis.verification is None  # no verify counters here
