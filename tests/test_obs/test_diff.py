"""Tests for trace regression diffing (``repro obs diff``).

The exit-code matrix is part of the contract CI leans on: 0 for a
clean (or within-threshold) comparison, 1 for a regression past the
threshold, 2 for unreadable input.
"""

import json
import os

import pytest

from repro.obs.diff import (
    DiffEntry,
    diff_metrics,
    load_metrics,
    main as diff_main,
    regressions,
    render_diff,
    trace_metrics,
)
from repro.obs.analyze import load_trace

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
MINI_TRACE = os.path.join(DATA, "mini_trace.jsonl")


def _slowed_copy(tmp_path, factor=2.0, phase="milp_solve"):
    """The mini trace with one phase's spans stretched by ``factor``."""
    lines = []
    with open(MINI_TRACE) as stream:
        for line in stream:
            record = json.loads(line)
            if record.get("type") == "span" and record["name"] == phase:
                record["duration"] *= factor
                record["end"] = record["start"] + record["duration"]
            lines.append(json.dumps(record))
    path = tmp_path / "slow.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestMetricExtraction:
    def test_trace_metrics_flatten(self):
        metrics = trace_metrics(load_trace(MINI_TRACE))
        assert metrics["run.wall_seconds"] == 10.0
        assert metrics["phase.milp_solve.total_seconds"] == 3.0
        assert metrics["phase.milp_solve.calls"] == 2
        assert metrics["counter.oracle_hits"] == 6
        assert metrics["hist.milp_solve_seconds.p95"] == 2.5

    def test_load_metrics_autodetects(self, tmp_path):
        assert load_metrics(MINI_TRACE)["run.wall_seconds"] == 10.0
        # A one-line JSONL trace (just the header) parses as one object.
        header = tmp_path / "header.jsonl"
        header.write_text('{"type": "trace", "trace_id": "t"}\n')
        assert load_metrics(str(header)) == {}
        bench = tmp_path / "BENCH_epn.json"
        bench.write_text(json.dumps({"1,0,0": {"complete": {"wall_clock": 2.0}}}))
        with pytest.raises(ValueError, match="not a trace"):
            load_metrics(str(bench))


class TestGating:
    def test_time_like_classification(self):
        entries = diff_metrics(
            {"phase.milp_solve.total_seconds": 1.0,
             "phase.milp_solve.calls": 2.0,
             "counter.oracle_hits": 5.0,
             "hist.milp_solve_seconds.p95": 0.5,
             "g.complete.wall_clock": 1.0},
            {},
        )
        time_like = {e.metric for e in entries if e.time_like}
        assert time_like == {
            "phase.milp_solve.total_seconds",
            "hist.milp_solve_seconds.p95",
            "g.complete.wall_clock",
        }

    def test_counters_never_gate(self):
        entries = diff_metrics(
            {"counter.oracle_hits": 5.0}, {"counter.oracle_hits": 500.0}
        )
        assert regressions(entries, 1.0) == []

    def test_regression_needs_nonzero_base(self):
        entries = diff_metrics(
            {"phase.milp_solve.total_seconds": 0.0},
            {"phase.milp_solve.total_seconds": 9.0},
        )
        assert regressions(entries, 1.0) == []

    def test_added_and_removed_are_informational(self):
        entries = diff_metrics(
            {"phase.refinement.total_seconds": 1.0},
            {"phase.embedding.total_seconds": 2.0},
        )
        assert regressions(entries, 1.0) == []
        table = render_diff(entries)
        assert "added" in table and "removed" in table

    def test_improvement_is_not_a_regression(self):
        entries = diff_metrics(
            {"run.wall_seconds": 10.0}, {"run.wall_seconds": 5.0}
        )
        assert regressions(entries, 1.0) == []
        assert entries[0].pct == -50.0


class TestExitCodes:
    def test_self_diff_exits_zero(self, capsys):
        code = diff_main(MINI_TRACE, MINI_TRACE, fail_on_regression=0.0)
        assert code == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out
        assert "0 changed" in out

    def test_injected_slowdown_exits_one(self, tmp_path, capsys):
        slow = _slowed_copy(tmp_path)
        code = diff_main(MINI_TRACE, slow, fail_on_regression=10.0)
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "phase.milp_solve.total_seconds" in out

    def test_slowdown_within_threshold_exits_zero(self, tmp_path):
        slow = _slowed_copy(tmp_path, factor=1.05)
        assert diff_main(MINI_TRACE, slow, fail_on_regression=50.0) == 0

    def test_no_threshold_never_gates(self, tmp_path):
        slow = _slowed_copy(tmp_path, factor=10.0)
        assert diff_main(MINI_TRACE, slow) == 0

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = diff_main(MINI_TRACE, str(tmp_path / "nope.jsonl"))
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_unreadable_input_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        # Two lines force the JSONL trace route; the span records are
        # missing their required keys.
        bad.write_text('{"type": "span", "name": "x"}\n{"type": "span"}\n')
        assert diff_main(str(bad), str(bad)) == 2

    def test_json_that_is_not_a_trace_exits_two(self, tmp_path, capsys):
        bench = tmp_path / "BENCH_epn.json"
        bench.write_text(json.dumps({"1,0,0": {"complete": {"wall_clock": 2.0}}}))
        assert diff_main(str(bench), str(bench)) == 2
        assert "not a trace" in capsys.readouterr().err


class TestJsonOutput:
    def test_json_shape(self, tmp_path, capsys):
        slow = _slowed_copy(tmp_path)
        code = diff_main(MINI_TRACE, slow, as_json=True, fail_on_regression=10.0)
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["threshold_pct"] == 10.0
        assert payload["regressions"] >= 1
        by_name = {m["metric"]: m for m in payload["metrics"]}
        entry = by_name["phase.milp_solve.total_seconds"]
        assert entry["regression"] is True
        assert entry["base"] == 3.0
        assert entry["delta"] == 3.0
        assert entry["pct"] == 100.0


class TestRendering:
    def test_signed_deltas(self):
        entries = [
            DiffEntry("run.wall_seconds", 2.0, 2.5, True),
            DiffEntry("counter.cuts", 4.0, 3.0, False),
        ]
        table = render_diff(entries)
        assert "+0.5" in table
        assert "+25%" in table
        assert "-1" in table
