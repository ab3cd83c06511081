"""Journal classification for boot-time resume (``scan_journal``).

The contract under test is "kill -9 loses nothing acknowledged": any
``job_submitted`` the server fsynced before its 202 must survive a
restart as queued work unless a *later* ``job_end`` retired it. The
ordering cases — especially a re-submission journaled after a crashed
terminal record — are the regressions for the resume path.
"""

import pytest

from repro.runtime.job import JobSpec
from repro.runtime.telemetry import TelemetryLogger, TruncatedJournalWarning
from repro.serve.session import scan_journal
from tests.test_runtime.test_ledger import write_retried_journal


def _spec(tag: str) -> JobSpec:
    # The tag only makes job ids distinct; these specs are never run.
    return JobSpec(
        "rpl", sizes={"n_a": 1, "n_b": 0}, problem={"tag": tag}, label=tag
    )


def _write_journal(path, events):
    logger = TelemetryLogger(str(path))
    for name, fields in events:
        logger.emit(name, **fields)
    logger.close()


def _submitted(spec: JobSpec, priority: int = 0):
    return (
        "job_submitted",
        {"job_id": spec.job_id, "spec": spec.to_dict(), "priority": priority},
    )


def _end(spec: JobSpec, status: str):
    return (
        "job_end",
        {"job_id": spec.job_id, "spec": spec.to_dict(), "status": status},
    )


def test_unfinished_submission_is_pending(tmp_path):
    spec = _spec("orphan")
    path = tmp_path / "journal.jsonl"
    _write_journal(path, [_submitted(spec, priority=3)])
    terminal, pending = scan_journal(str(path))
    assert terminal == {}
    assert [e["job_id"] for e in pending] == [spec.job_id]
    assert pending[0]["priority"] == 3


def test_finished_job_is_terminal_not_pending(tmp_path):
    spec = _spec("done")
    path = tmp_path / "journal.jsonl"
    _write_journal(path, [_submitted(spec), _end(spec, "optimal")])
    terminal, pending = scan_journal(str(path))
    assert pending == []
    assert terminal[spec.job_id]["status"] == "optimal"


def test_resubmission_after_crash_is_pending_not_terminal(tmp_path):
    # The acknowledged-re-submission race: a job crashes, the client
    # re-submits (the server journals a second job_submitted and
    # returns 202), then the server is SIGKILLed before the retry
    # runs. The re-submission is the job's last relevant record, so
    # boot must re-enqueue it — replaying the stale crashed record
    # would silently drop acknowledged work.
    spec = _spec("retry")
    path = tmp_path / "journal.jsonl"
    _write_journal(
        path,
        [
            _submitted(spec, priority=0),
            _end(spec, "crashed"),
            _submitted(spec, priority=7),
        ],
    )
    terminal, pending = scan_journal(str(path))
    assert spec.job_id not in terminal
    assert [e["job_id"] for e in pending] == [spec.job_id]
    # The re-submission's priority wins, not the original's.
    assert pending[0]["priority"] == 7


def test_resubmission_then_completion_is_terminal_again(tmp_path):
    spec = _spec("recovered")
    path = tmp_path / "journal.jsonl"
    _write_journal(
        path,
        [
            _submitted(spec),
            _end(spec, "crashed"),
            _submitted(spec),
            _end(spec, "optimal"),
        ],
    )
    terminal, pending = scan_journal(str(path))
    assert pending == []
    assert terminal[spec.job_id]["status"] == "optimal"


def test_cancelled_job_stays_terminal_across_restarts(tmp_path):
    spec = _spec("cancelled")
    path = tmp_path / "journal.jsonl"
    _write_journal(path, [_submitted(spec), _end(spec, "cancelled")])
    terminal, pending = scan_journal(str(path))
    assert pending == []
    assert terminal[spec.job_id]["status"] == "cancelled"


def test_pending_ordered_by_operative_submission(tmp_path):
    # Job A was submitted first but re-submitted last: its operative
    # submission follows B's, so the resume queue is [B, A].
    a, b = _spec("a"), _spec("b")
    path = tmp_path / "journal.jsonl"
    _write_journal(
        path,
        [
            _submitted(a),
            _end(a, "timeout"),
            _submitted(b),
            _submitted(a, priority=1),
        ],
    )
    _, pending = scan_journal(str(path))
    assert [e["job_id"] for e in pending] == [b.job_id, a.job_id]


def test_retried_journal_order_is_pinned(tmp_path):
    # b and c finished, a crashed and was re-submitted after its
    # job_end; boot replays b, c and re-enqueues a. The torn last line
    # is skipped with a warning.
    path = str(tmp_path / "journal.jsonl")
    a, b, c = write_retried_journal(path)
    with pytest.warns(TruncatedJournalWarning):
        terminal, pending = scan_journal(path)
    assert list(terminal) == [b.job_id, c.job_id]
    assert [r["status"] for r in terminal.values()] == ["optimal", "optimal"]
    assert [(e["job_id"], e["ts"]) for e in pending] == [(a.job_id, 16.0)]


def test_backstop_timeout_is_terminal(tmp_path):
    # The parent-side backstop journals a job_timeout incident and then
    # the job_end: a restarted server replays it instead of re-running.
    spec = _spec("wedged")
    path = tmp_path / "journal.jsonl"
    _write_journal(
        path,
        [
            _submitted(spec),
            ("job_timeout", {"job_id": spec.job_id, "after": 1.0,
                             "stage": "parent-backstop"}),
            _end(spec, "timeout"),
        ],
    )
    terminal, pending = scan_journal(str(path))
    assert pending == []
    assert terminal[spec.job_id]["status"] == "timeout"
