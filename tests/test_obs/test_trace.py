"""Tracer mechanics: ids, sinks, stack discipline."""

import io
import json

from repro.obs import (
    ChromeTraceSink,
    InMemorySink,
    JsonlSink,
    Tracer,
    span_id_for,
)


class TestSpanIds:
    def test_structural_only(self):
        # Ids depend on (parent, name, seq) — never on the trace id —
        # so identical trajectories from different runs share ids.
        a = Tracer(trace_id="aaaa")
        b = Tracer(trace_id="bbbb")
        sa = a.start_span("run")
        sb = b.start_span("run")
        assert sa.span_id == sb.span_id == span_id_for(None, "run", 0)

    def test_sibling_seq_auto_increments(self):
        t = Tracer()
        run = t.start_span("run")
        first = t.start_span("iteration")
        t.end_span(first)
        second = t.start_span("iteration")
        t.end_span(second)
        assert first.span_id == span_id_for(run.span_id, "iteration", 0)
        assert second.span_id == span_id_for(run.span_id, "iteration", 1)
        assert first.span_id != second.span_id

    def test_explicit_seq_overrides(self):
        t = Tracer()
        run = t.start_span("run")
        span = t.start_span("refinement_check", seq=7)
        assert span.parent_id == run.span_id
        assert span.span_id == span_id_for(run.span_id, "refinement_check", 7)


class TestTracer:
    def test_stack_parenting(self):
        sink = InMemorySink()
        with Tracer([sink]) as t:
            with t.span("run") as run:
                with t.span("iteration", index=1) as it:
                    assert it.parent_id == run.span_id
                assert t.current is run
        names = [s["name"] for s in sink.spans]
        assert names == ["iteration", "run"]  # children emitted first

    def test_finish_closes_stragglers_and_is_idempotent(self):
        sink = InMemorySink()
        t = Tracer([sink])
        t.start_span("run")
        t.finish()
        t.finish()
        assert len(sink.spans) == 1
        assert sink.spans[0]["attrs"]["unclosed"] is True
        assert sink.metrics is not None

    def test_phase_spans_feed_their_histogram(self):
        t = Tracer()
        with t.span("iteration"):
            with t.phase("milp_solve") as first:
                pass
            with t.phase("milp_solve") as second:
                pass
        histograms = t.metrics.histograms
        assert set(histograms) == {"milp_solve_seconds"}
        assert histograms["milp_solve_seconds"].count == 2
        assert t.metrics.total("milp_solve_seconds") == (
            first.duration + second.duration
        )
        assert t.metrics.total("refinement_seconds") == 0.0

    def test_span_times_are_on_the_epoch_scale(self):
        import time

        before = time.time()
        t = Tracer()
        with t.span("run") as span:
            pass
        assert before - 1.0 <= span.start <= span.end <= time.time() + 1.0

class TestJsonlSink:
    def test_record_stream(self):
        buffer = io.StringIO()
        with Tracer([JsonlSink(buffer)]) as t:
            with t.span("run"):
                t.metrics.counter("hits", 3)
        records = [json.loads(line) for line in buffer.getvalue().splitlines()]
        kinds = [r["type"] for r in records]
        assert kinds == ["trace", "span", "metrics"]
        assert records[0]["trace_id"] == t.trace_id
        assert records[1]["name"] == "run"
        assert records[2]["metrics"]["counters"] == {"hits": 3}

    def test_close_idempotent(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "t.jsonl"))
        sink.close()
        sink.close()  # must not raise


class TestChromeTraceSink:
    def test_document_schema(self, tmp_path):
        path = str(tmp_path / "trace.json")
        with Tracer([ChromeTraceSink(path)]) as t:
            with t.span("run"):
                with t.span("iteration", index=1):
                    pass
            t.metrics.counter("hits")
        document = json.loads(open(path).read())
        assert set(document) == {"traceEvents", "displayTimeUnit", "otherData"}
        events = document["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert "id" in event["args"]
        child = next(e for e in events if e["name"] == "iteration")
        parent = next(e for e in events if e["name"] == "run")
        assert child["args"]["parent"] == parent["args"]["id"]
        assert document["otherData"]["trace_id"] == t.trace_id
        assert document["otherData"]["metrics"]["counters"] == {"hits": 1}
