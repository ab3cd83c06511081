"""Run-ledger tests: resume semantics, replay equivalence, canonical records.

The acceptance bar: a sweep killed after K jobs and resumed via the
ledger re-runs only the unfinished jobs and produces records identical
to an uninterrupted run modulo wall-clock fields.
"""

import json

import pytest

from repro.runtime.job import JobResult, JobSpec
from repro.runtime.ledger import (
    RUNTIME_FAILURES,
    canonical_record,
    completed_records,
    load_ledger,
    plan_resume,
)
from repro.runtime.scheduler import Scheduler
from repro.runtime.sweep import run_sweep
from repro.runtime.telemetry import (
    TelemetryLogger,
    TruncatedJournalWarning,
    read_events,
)


def _grid(n=3):
    scenarios = ["complete", "only-iso", "only-decomp"]
    return [
        JobSpec(
            "rpl",
            sizes={"n_a": 1, "n_b": 0},
            engine={"scenario": scenario, "max_iterations": 200},
            label=f"ledger {scenario}",
        )
        for scenario in scenarios[:n]
    ]


def _run_clean(path):
    """One uninterrupted serial sweep, journaled to ``path``."""
    with TelemetryLogger(path) as telemetry:
        scheduler = Scheduler(serial=True, use_cache=False, telemetry=telemetry)
        return run_sweep(_grid(), scheduler=scheduler)


def _truncate_after_jobs(journal, kept, out):
    """Simulate a SIGKILL after ``kept`` jobs: keep events up to the
    kept-th job_end, then a half-written line (died mid-``write``)."""
    lines = []
    ends = 0
    for line in open(journal, encoding="utf-8"):
        if ends >= kept:
            break
        lines.append(line)
        if json.loads(line).get("event") == "job_end":
            ends += 1
    with open(out, "w", encoding="utf-8") as stream:
        stream.writelines(lines)
        stream.write('{"event": "job_end", "job_id": "c3a9, ')
    return out


def write_retried_journal(path):
    """A journal every fold view is pinned on; returns the specs (a, b, c).

    ``a`` crashes, is retried, ends ``crashed`` and is re-submitted after
    its ``job_end``; ``b`` and ``c`` finish. A killed writer's torn line
    ends the file.
    """
    a, b, c = (
        JobSpec("rpl", sizes={"n_a": 1}, problem={"tag": tag}, label=tag)
        for tag in ("a", "b", "c")
    )

    def end(spec, ts, status, attempts=1):
        result = JobResult(
            spec.job_id, spec, status, attempts=attempts, duration=1.0
        )
        return dict(result.to_dict(), event="job_end", ts=ts)

    def submitted(spec, ts):
        return {"event": "job_submitted", "ts": ts, "job_id": spec.job_id,
                "spec": spec.to_dict(), "priority": 0}

    def start(spec, ts, attempt):
        return {"event": "job_start", "ts": ts, "job_id": spec.job_id,
                "label": spec.label, "attempt": attempt}

    events = [
        {"event": "sweep_start", "ts": 10.0, "jobs": 3, "workers": 2},
        submitted(a, 10.1),
        submitted(b, 10.2),
        submitted(c, 10.3),
        start(b, 11.0, 1),
        start(a, 11.5, 1),
        {"event": "job_retry", "ts": 12.0, "job_id": a.job_id,
         "attempt": 1, "backoff": 0.25},
        start(a, 12.5, 2),
        end(b, 13.0, "optimal"),
        end(a, 14.0, "crashed", attempts=2),
        start(c, 14.5, 1),
        end(c, 15.0, "optimal"),
        submitted(a, 16.0),
    ]
    with open(path, "w", encoding="utf-8") as stream:
        for event in events:
            stream.write(json.dumps(event, sort_keys=True) + "\n")
        stream.write('{"event": "job_start", "job_id": ')
    return a, b, c


class TestFoldViews:
    """Pinned order of every view over one retried/re-submitted journal."""

    def test_load_ledger(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        a, b, c = write_retried_journal(path)
        with pytest.warns(TruncatedJournalWarning):
            ledger = load_ledger(path)
        assert list(ledger) == [b.job_id, a.job_id, c.job_id]
        assert [r["status"] for r in ledger.values()] == [
            "optimal", "crashed", "optimal",
        ]
        assert ledger[a.job_id]["attempts"] == 2
        with pytest.warns(TruncatedJournalWarning):
            assert list(completed_records(path)) == [b.job_id, c.job_id]

    def test_sweep_timeline(self, tmp_path):
        from repro.runtime.ledger import sweep_timeline

        path = str(tmp_path / "j.jsonl")
        a, b, c = write_retried_journal(path)
        with pytest.warns(TruncatedJournalWarning):
            timeline = sweep_timeline(path)
        assert (timeline.origin, timeline.end) == (10.0, 16.0)
        assert (timeline.total_jobs, timeline.workers) == (3, 2)
        assert [
            (l.label, l.start, l.end, l.status, l.attempts)
            for l in timeline.jobs
        ] == [
            ("b", 11.0, 13.0, "optimal", 1),
            ("a", 11.5, 14.0, "crashed", 2),
            ("c", 14.5, 15.0, "optimal", 1),
        ]
        assert [(i.kind, i.ts, i.job_id) for i in timeline.incidents] == [
            ("job_retry", 12.0, a.job_id),
        ]
        assert timeline.depth == [
            (11.0, 1), (11.5, 2), (13.0, 1), (14.0, 0), (14.5, 1), (15.0, 0),
        ]

    def test_sweep_report(self, tmp_path):
        from repro.runtime.sweep import SweepReport

        path = str(tmp_path / "j.jsonl")
        a, b, c = write_retried_journal(path)
        with pytest.warns(TruncatedJournalWarning):
            report = SweepReport.from_journal(path)
        assert [r.job_id for r in report.results] == [
            b.job_id, a.job_id, c.job_id,
        ]
        assert [r.status for r in report.results] == [
            "optimal", "crashed", "optimal",
        ]
        assert report.wall_clock == pytest.approx(6.0)

    def test_one_lane_per_job_ended_before_it_started(self, tmp_path):
        # A job cancelled while queued ends without a start; run again
        # later, it still draws one lane, placed at its first record.
        from repro.runtime.ledger import sweep_timeline

        path = str(tmp_path / "j.jsonl")
        with TelemetryLogger(path) as log:
            log.emit("job_end", job_id="a" * 40, status="cancelled")
            log.emit("job_start", job_id="b" * 40)
            log.emit("job_start", job_id="a" * 40)
            log.emit("job_end", job_id="a" * 40, status="optimal")
        lanes = sweep_timeline(path).jobs
        assert [(l.job_id[0], l.status) for l in lanes] == [
            ("a", "optimal"), ("b", "unfinished"),
        ]


class TestLoadLedger:
    def test_last_record_per_job_wins(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with TelemetryLogger(path) as log:
            log.emit("job_end", job_id="a", status="crashed")
            log.emit("job_start", job_id="a")
            log.emit("job_end", job_id="a", status="optimal", cost=5.0)
        ledger = load_ledger(path)
        assert ledger["a"]["status"] == "optimal"
        assert "ts" not in ledger["a"] and "event" not in ledger["a"]

    def test_completed_excludes_runtime_failures(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with TelemetryLogger(path) as log:
            for job_id, status in [
                ("ok", "optimal"),
                ("inf", "infeasible"),
                ("cap", "iteration_limit"),
                ("tl", "time_limit"),
                ("err", "error"),
                ("dead", "crashed"),
                ("slow", "timeout"),
                ("halt", "cancelled"),
            ]:
                log.emit("job_end", job_id=job_id, status=status)
        done = completed_records(path)
        assert set(done) == {"ok", "inf", "cap", "tl"}
        assert not set(done) & {s for s in RUNTIME_FAILURES}

    def test_tolerates_truncated_tail(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w", encoding="utf-8") as stream:
            stream.write('{"event": "job_end", "job_id": "a", "status": "optimal"}\n')
            stream.write('{"event": "job_end", "job_id":')
        with pytest.warns(TruncatedJournalWarning):
            assert set(load_ledger(path)) == {"a"}


class TestPlanResume:
    def test_splits_grid_and_ignores_foreign_entries(self):
        specs = _grid()
        completed = {
            specs[0].job_id: {"job_id": specs[0].job_id, "status": "optimal"},
            "not-in-this-grid": {"job_id": "not-in-this-grid", "status": "optimal"},
        }
        todo, replay = plan_resume(specs, completed)
        assert [s.job_id for s in todo] == [s.job_id for s in specs[1:]]
        assert set(replay) == {specs[0].job_id}


class TestResumeEquivalence:
    """The pinned acceptance criterion for the durable ledger."""

    def test_killed_sweep_resumes_only_unfinished_jobs(self, tmp_path):
        clean_journal = str(tmp_path / "clean.jsonl")
        golden = _run_clean(clean_journal)
        assert all(r.status == "optimal" for r in golden.results)

        # Kill after 1 of 3 jobs (with a torn final line), then resume.
        ledger = _truncate_after_jobs(
            clean_journal, kept=1, out=str(tmp_path / "killed.jsonl")
        )
        with pytest.warns(TruncatedJournalWarning):
            with TelemetryLogger(ledger) as telemetry:
                scheduler = Scheduler(
                    serial=True, use_cache=False, telemetry=telemetry
                )
                resumed = run_sweep(_grid(), scheduler=scheduler, resume=ledger)

        assert resumed.replayed == 1
        # Only the 2 unfinished jobs executed in the resumed run. (The
        # torn line is still in the journal, hence the warning.)
        with pytest.warns(TruncatedJournalWarning):
            events = read_events(ledger)
        marker = [i for i, e in enumerate(events) if e["event"] == "sweep_resume"]
        assert len(marker) == 1
        after = events[marker[0]:]
        started = [e["job_id"] for e in after if e["event"] == "job_start"]
        expected = [s.job_id for s in _grid()[1:]]
        assert started == expected

        # Replayed + fresh records == uninterrupted records, modulo
        # wall-clock fields, in grid order.
        resumed_rows = [canonical_record(r) for r in resumed.records]
        golden_rows = [canonical_record(r) for r in golden.records]
        assert resumed_rows == golden_rows

    def test_fully_complete_ledger_runs_nothing(self, tmp_path):
        journal = str(tmp_path / "done.jsonl")
        golden = _run_clean(journal)
        with TelemetryLogger(journal) as telemetry:
            scheduler = Scheduler(serial=True, use_cache=False, telemetry=telemetry)
            resumed = run_sweep(_grid(), scheduler=scheduler, resume=journal)
        assert resumed.replayed == len(_grid())
        events = read_events(journal)
        marker = max(
            i for i, e in enumerate(events) if e["event"] == "sweep_resume"
        )
        assert not [
            e for e in events[marker:] if e["event"] == "job_start"
        ]
        assert [canonical_record(r) for r in resumed.records] == [
            canonical_record(r) for r in golden.records
        ]

    def test_failed_jobs_are_rerun_on_resume(self, tmp_path):
        journal = str(tmp_path / "failed.jsonl")
        specs = _grid(2)
        with TelemetryLogger(journal) as log:
            log.emit(
                "job_end",
                **JobResult(
                    specs[0].job_id, specs[0], "timeout", attempts=2
                ).to_dict(),
            )
        with TelemetryLogger(journal) as telemetry:
            scheduler = Scheduler(serial=True, use_cache=False, telemetry=telemetry)
            resumed = run_sweep(specs, scheduler=scheduler, resume=journal)
        assert resumed.replayed == 0  # a timeout is an incident, not a result
        assert all(r.status == "optimal" for r in resumed.results)

    def test_job_ids_stable_across_grid_rebuilds(self):
        # The whole ledger scheme rests on content-addressed ids: the
        # same grid built twice must produce the same join keys.
        assert [s.job_id for s in _grid()] == [s.job_id for s in _grid()]


class TestCanonicalRecord:
    def test_strips_volatile_keeps_trajectory(self):
        spec = _grid(1)[0]
        record = JobResult(
            spec.job_id,
            spec,
            "optimal",
            cost=42.0,
            selected={"x": "impl_a"},
            stats={
                "num_iterations": 3,
                "total_time": 1.23,
                "milp_time": 0.5,
                "oracle_cache": {"hits": 7},
                "iterations": [
                    {"index": 1, "milp_time": 0.1, "cuts_added": 2},
                ],
            },
            cache={"hits": 9},
            attempts=2,
            duration=9.9,
        ).to_dict()
        canonical = canonical_record(record)
        assert canonical["cost"] == 42.0
        assert canonical["selected"] == {"x": "impl_a"}
        assert canonical["stats"]["num_iterations"] == 3
        assert canonical["stats"]["iterations"] == [
            {"index": 1, "cuts_added": 2}
        ]
        for gone in ("duration", "attempts", "cache"):
            assert gone not in canonical
        for gone in ("total_time", "milp_time", "oracle_cache"):
            assert gone not in canonical["stats"]


class TestIncidentExtraction:
    def _journal(self, tmp_path, events):
        path = tmp_path / "sweep.jsonl"
        path.write_text(
            "".join(json.dumps(e) + "\n" for e in events), encoding="utf-8"
        )
        return str(path)

    def test_extracts_each_incident_kind(self, tmp_path):
        from repro.runtime.ledger import extract_incidents

        path = self._journal(tmp_path, [
            {"event": "sweep_start", "ts": 1.0, "jobs": 2, "workers": 2},
            {"event": "job_retry", "ts": 2.0, "job_id": "j1", "attempt": 1,
             "backoff": 0.25},
            {"event": "job_timeout", "ts": 3.0, "job_id": "j2", "after": 5.0,
             "stage": "worker"},
            {"event": "scheduler_degraded", "ts": 4.0, "rebuilds": 3,
             "remaining": 1},
            {"event": "sweep_cancelled", "ts": 5.0, "completed": 1},
        ])
        incidents = extract_incidents(path)
        assert [i.kind for i in incidents] == [
            "job_retry", "job_timeout", "scheduler_degraded", "sweep_cancelled",
        ]
        assert incidents[0].job_id == "j1"
        assert "backoff 0.25s" in incidents[0].detail
        assert "after 5.0s" in incidents[1].detail
        assert "3 pool rebuilds" in incidents[2].detail

    def test_lifecycle_events_are_not_incidents(self, tmp_path):
        from repro.runtime.ledger import extract_incidents

        path = self._journal(tmp_path, [
            {"event": "job_start", "ts": 1.0, "job_id": "j1"},
            {"event": "job_end", "ts": 2.0, "job_id": "j1",
             "status": "optimal"},
        ])
        assert extract_incidents(path) == []


class TestSweepTimeline:
    def _journal(self, tmp_path, events):
        path = tmp_path / "sweep.jsonl"
        path.write_text(
            "".join(json.dumps(e) + "\n" for e in events), encoding="utf-8"
        )
        return str(path)

    def test_lanes_keep_journal_order_and_labels(self, tmp_path):
        from repro.runtime.ledger import sweep_timeline

        path = self._journal(tmp_path, [
            {"event": "sweep_start", "ts": 10.0, "jobs": 2, "workers": 2},
            {"event": "job_start", "ts": 11.0, "job_id": "b" * 40},
            {"event": "job_start", "ts": 11.5, "job_id": "a" * 40},
            {"event": "job_end", "ts": 13.0, "job_id": "a" * 40,
             "status": "optimal", "attempts": 1, "spec": {"label": "g-a"}},
            {"event": "job_end", "ts": 14.0, "job_id": "b" * 40,
             "status": "error", "attempts": 2, "spec": {"label": "g-b"}},
        ])
        timeline = sweep_timeline(path)
        assert timeline.origin == 10.0 and timeline.end == 14.0
        assert timeline.workers == 2
        assert [l.label for l in timeline.jobs] == ["g-b", "g-a"]
        assert [l.status for l in timeline.jobs] == ["error", "optimal"]
        assert timeline.jobs[0].attempts == 2
        assert not any(l.replayed for l in timeline.jobs)

    def test_replayed_lanes_precede_resume_marker(self, tmp_path):
        from repro.runtime.ledger import sweep_timeline

        path = self._journal(tmp_path, [
            {"event": "job_end", "ts": 1.0, "job_id": "a" * 40,
             "status": "optimal", "spec": {"label": "old"}},
            {"event": "sweep_resume", "ts": 2.0, "replayed": 1, "pending": 1},
            {"event": "job_start", "ts": 2.5, "job_id": "b" * 40},
            {"event": "job_end", "ts": 3.0, "job_id": "b" * 40,
             "status": "optimal", "spec": {"label": "new"}},
        ])
        timeline = sweep_timeline(path)
        assert timeline.resume_ts == 2.0 and timeline.replayed == 1
        by_label = {l.label: l for l in timeline.jobs}
        assert by_label["old"].replayed is True
        assert by_label["new"].replayed is False

    def test_depth_steps_and_unfinished_jobs(self, tmp_path):
        from repro.runtime.ledger import sweep_timeline

        path = self._journal(tmp_path, [
            {"event": "job_start", "ts": 1.0, "job_id": "a" * 40},
            {"event": "job_start", "ts": 2.0, "job_id": "b" * 40},
            {"event": "job_end", "ts": 3.0, "job_id": "a" * 40,
             "status": "optimal"},
            {"event": "job_start", "ts": 3.5, "job_id": "c" * 40},
        ])
        timeline = sweep_timeline(path)
        # c and b never ended: unfinished lanes close at journal end.
        by_status = [l.status for l in timeline.jobs]
        assert by_status.count("unfinished") == 2
        assert timeline.depth[0] == (1.0, 1)
        assert (2.0, 2) in timeline.depth
        assert (3.0, 1) in timeline.depth

    def test_empty_journal(self, tmp_path):
        from repro.runtime.ledger import sweep_timeline

        path = tmp_path / "empty.jsonl"
        path.write_text("")
        timeline = sweep_timeline(str(path))
        assert timeline.jobs == [] and timeline.incidents == []
