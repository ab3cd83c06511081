"""Durable run ledger: resume a killed sweep from its telemetry journal.

The scheduler journals one ``job_end`` event per terminal outcome, each
embedding the full :class:`~repro.runtime.job.JobResult` record keyed by
the spec's content-addressed ``job_id``. That journal *is* the ledger:
no second artifact, no extra write path — durability falls out of the
telemetry layer's flush-per-event contract.

``python -m repro sweep --resume JOURNAL`` replays the ledger and
re-runs only jobs without a successful terminal record, so a SIGKILLed
grid run (the minutes-to-hours Table II / Fig. 5 workloads) resumes
instead of restarting. Because job ids are content hashes of the spec,
replay is join-stable across processes, machines and code paths — the
grid builder regenerating the same specs finds the same ids.

Semantics:

* engine outcomes (``optimal``, ``infeasible``, ``iteration_limit``,
  ``time_limit``) are *results* — replayed verbatim, never re-run;
* runtime failures (``error``, ``crashed``, ``timeout``, ``cancelled``)
  are *incidents* — the job is re-run on resume;
* the last record per job id wins (a retry's eventual success
  supersedes an earlier failure appended by the same journal).

Every reader of a journal — the ledger views here, the fleet timeline,
:meth:`repro.runtime.sweep.SweepReport.from_journal` and the serve boot
scan :func:`repro.serve.session.scan_journal` — is a view of one
single-pass fold, :func:`fold_journal`.

:func:`canonical_record` is the equivalence the resume tests (and the
CI chaos job) pin: a resumed sweep's records must equal an
uninterrupted sweep's records modulo wall-clock-dependent fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.runtime.job import JobSpec
from repro.runtime.telemetry import iter_events

#: Statuses that mean "the runtime failed the job", not "the job
#: produced an answer" — resuming re-runs these.
RUNTIME_FAILURES = frozenset({"error", "crashed", "timeout", "cancelled"})

#: Result fields whose values depend on wall clock, scheduling or cache
#: temperature rather than the exploration trajectory.
_VOLATILE_FIELDS = ("duration", "attempts", "cache", "error")
_VOLATILE_STATS = ("phase_profile", "oracle_cache")
_TIMING_SUFFIX = "_time"


def load_ledger(path: str, strict: bool = False) -> Dict[str, Dict[str, Any]]:
    """Read a journal into ``{job_id: last job_end record}``.

    Tolerates the truncated final line a killed run leaves behind
    (see :func:`repro.runtime.telemetry.iter_events`).
    """
    return fold_journal(path, strict=strict).ledger()


def completed_records(path: str, strict: bool = False) -> Dict[str, Dict[str, Any]]:
    """The replayable subset of a ledger: successful terminal records."""
    return {
        job_id: record
        for job_id, record in load_ledger(path, strict=strict).items()
        if record.get("status") not in RUNTIME_FAILURES
    }


def plan_resume(
    specs: Sequence[JobSpec], completed: Dict[str, Dict[str, Any]]
) -> Tuple[List[JobSpec], Dict[str, Dict[str, Any]]]:
    """Split a grid into (jobs to run, records to replay).

    Ledger entries for jobs outside the grid are ignored — a journal
    may accumulate several different sweeps.
    """
    todo = [spec for spec in specs if spec.job_id not in completed]
    replay = {
        spec.job_id: completed[spec.job_id]
        for spec in specs
        if spec.job_id in completed
    }
    return todo, replay


#: Journal events that record the runtime fighting something — retries,
#: degradation, backstop timeouts, cancellation — as opposed to the
#: ordinary job lifecycle. The fleet dashboard plots these as markers.
INCIDENT_EVENTS = frozenset(
    {"job_retry", "scheduler_degraded", "job_timeout", "sweep_cancelled"}
)


@dataclass(frozen=True)
class Incident:
    """One runtime incident extracted from a sweep journal."""

    kind: str  # the journal event name
    ts: float  # absolute journal timestamp (Unix seconds)
    job_id: Optional[str] = None
    detail: str = ""

    @classmethod
    def from_event(cls, event: Dict[str, Any]) -> "Incident":
        """One :data:`INCIDENT_EVENTS` record with a human-readable detail."""
        kind = event.get("event")
        if kind == "job_retry":
            detail = (
                f"attempt {event.get('attempt', '?')} crashed, "
                f"backoff {event.get('backoff', 0.0):.2f}s"
            )
        elif kind == "scheduler_degraded":
            detail = (
                f"{event.get('rebuilds', '?')} pool rebuilds, "
                f"{event.get('remaining', '?')} jobs drained serially"
            )
        elif kind == "job_timeout":
            detail = (
                f"no response after {event.get('after', '?')}s "
                f"({event.get('stage', 'worker')})"
            )
        else:  # sweep_cancelled
            detail = f"{event.get('completed', '?')} jobs completed before cancel"
        return cls(kind, float(event.get("ts", 0.0)), event.get("job_id"), detail)


@dataclass
class JournalFold:
    """What one pass over a journal keeps; every reader is a view of it.

    Only events with a non-empty ``job_id`` feed the per-job maps, and
    journal indices count every decoded event.
    """

    first_ts: Optional[float] = None  # first and last ``ts`` present
    last_ts: Optional[float] = None
    #: Last ``job_end`` event per job id, in first-``job_end`` order.
    ends: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Journal index of each job's last ``job_end``.
    ended_at: Dict[str, int] = field(default_factory=dict)
    #: Last ``job_submitted`` event carrying a spec, per job id.
    submitted: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Journal index of each job's last such ``job_submitted``.
    submitted_at: Dict[str, int] = field(default_factory=dict)
    #: Timestamp of each job's first ``job_start``.
    first_start: Dict[str, float] = field(default_factory=dict)
    #: Job ids in order of their first ``job_start`` or ``job_end``.
    lanes: List[str] = field(default_factory=list)
    sweep_start: Optional[Dict[str, Any]] = None  # the last one
    sweep_resume: Optional[Dict[str, Any]] = None  # the last one
    incidents: List[Incident] = field(default_factory=list)

    def ledger(self) -> Dict[str, Dict[str, Any]]:
        """``{job_id: last job_end record}`` without ``event``/``ts``."""
        return {
            job_id: {
                key: value
                for key, value in event.items()
                if key not in ("event", "ts")
            }
            for job_id, event in self.ends.items()
        }


def fold_journal(path: str, strict: bool = False) -> JournalFold:
    """Read a journal once and keep what every journal reader needs.

    Tolerates the truncated final line a killed run leaves behind
    unless ``strict`` (see :func:`repro.runtime.telemetry.iter_events`).
    """
    fold = JournalFold()
    for index, event in enumerate(iter_events(path, strict=strict)):
        kind = event.get("event")
        ts = event.get("ts")
        if ts is not None:
            if fold.first_ts is None:
                fold.first_ts = ts
            fold.last_ts = ts
        if kind in INCIDENT_EVENTS:
            fold.incidents.append(Incident.from_event(event))
        elif kind == "sweep_start":
            fold.sweep_start = event
        elif kind == "sweep_resume":
            fold.sweep_resume = event
        job_id = event.get("job_id")
        if not job_id:
            continue
        if kind in ("job_start", "job_end") and not (
            job_id in fold.first_start or job_id in fold.ends
        ):
            fold.lanes.append(job_id)
        if kind == "job_start":
            fold.first_start.setdefault(job_id, float(ts or 0.0))
        elif kind == "job_end":
            fold.ends[job_id] = event
            fold.ended_at[job_id] = index
        elif kind == "job_submitted" and event.get("spec"):
            fold.submitted[job_id] = event
            fold.submitted_at[job_id] = index
    return fold


@dataclass(frozen=True)
class JobLane:
    """One job's swimlane: first submission to terminal outcome."""

    job_id: str
    label: str
    start: float  # first job_start ts (or end ts for replayed jobs)
    end: float  # terminal job_end ts
    status: str
    attempts: int
    replayed: bool  # terminal record predates the last sweep_resume


@dataclass
class SweepTimeline:
    """A sweep journal reduced to what the fleet view plots.

    ``origin`` is the first event timestamp — all rendering is relative
    to it, so two identical journals produce identical views regardless
    of when they were recorded.
    """

    origin: float = 0.0
    end: float = 0.0
    jobs: List[JobLane] = field(default_factory=list)
    incidents: List[Incident] = field(default_factory=list)
    total_jobs: int = 0  # from sweep_start, 0 if the header is missing
    workers: int = 0
    resume_ts: Optional[float] = None  # last sweep_resume, if any
    replayed: int = 0  # jobs replayed from the ledger on resume
    depth: List[Tuple[float, int]] = field(default_factory=list)  # (ts, in-flight)


def extract_incidents(path: str, strict: bool = False) -> List[Incident]:
    """Pull retry/backoff/degradation incidents out of a sweep journal.

    Each :data:`INCIDENT_EVENTS` record becomes one :class:`Incident`
    with a human-readable ``detail`` line, in journal order — the
    mechanical input behind the dashboard's incident markers and table.
    """
    return fold_journal(path, strict=strict).incidents


def sweep_timeline(path: str, strict: bool = False) -> SweepTimeline:
    """Reduce a sweep journal to job swimlanes, incidents and queue depth.

    Jobs keep journal order (first start, or terminal record for a job
    that never started in this journal). A job whose terminal
    ``job_end`` precedes the last ``sweep_resume`` marker was replayed
    from the ledger rather than executed by the resuming run. The
    ``depth`` series steps at every start/end: how many jobs were in
    flight.
    """
    fold = fold_journal(path, strict=strict)
    timeline = SweepTimeline(incidents=fold.incidents)
    if fold.first_ts is not None:
        timeline.origin = float(fold.first_ts)
        timeline.end = float(fold.last_ts)
    if fold.sweep_start is not None:
        timeline.total_jobs = int(fold.sweep_start.get("jobs", 0))
        timeline.workers = int(fold.sweep_start.get("workers", 0))
    if fold.sweep_resume is not None:
        timeline.resume_ts = float(fold.sweep_resume.get("ts", 0.0))
        timeline.replayed = int(fold.sweep_resume.get("replayed", 0))
    for job_id in fold.lanes:
        record = fold.ends.get(job_id) or {}
        end_ts = float(record.get("ts", 0.0)) if record else timeline.end
        replayed = (
            timeline.resume_ts is not None
            and bool(record)
            and end_ts < timeline.resume_ts
        )
        spec = record.get("spec") or {}
        timeline.jobs.append(
            JobLane(
                job_id,
                str(spec.get("label") or record.get("label") or job_id[:8]),
                fold.first_start.get(job_id, end_ts),
                end_ts,
                str(record.get("status", "unfinished")),
                int(record.get("attempts", 1) or 1),
                replayed,
            )
        )
    # In-flight depth: +1 at each first start, -1 at each terminal end.
    steps: List[Tuple[float, int]] = []
    for lane in timeline.jobs:
        if not lane.replayed and lane.start < lane.end:
            steps.append((lane.start, +1))
            steps.append((lane.end, -1))
    steps.sort()
    depth = 0
    series: List[Tuple[float, int]] = []
    for ts, delta in steps:
        depth += delta
        if series and series[-1][0] == ts:
            series[-1] = (ts, depth)
        else:
            series.append((ts, depth))
    timeline.depth = series
    return timeline


def canonical_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """A ``JobResult.to_dict()`` record minus volatile fields.

    Strips wall-clock durations (top-level and per-iteration), retry
    counts, cache-temperature counters and error text; what remains —
    spec, status, cost, selected implementations, iteration/cut
    trajectory — is deterministic for a given spec, so a resumed sweep
    must reproduce it byte-for-byte.
    """
    def scrub(value: Any, drop: Iterable[str]) -> Any:
        if isinstance(value, dict):
            return {
                key: scrub(inner, ())
                for key, inner in value.items()
                if key not in drop and not key.endswith(_TIMING_SUFFIX)
            }
        if isinstance(value, list):
            return [scrub(item, ()) for item in value]
        return value

    canonical = {
        key: value
        for key, value in record.items()
        if key not in _VOLATILE_FIELDS
    }
    canonical["stats"] = scrub(
        record.get("stats") or {}, _VOLATILE_STATS
    )
    return canonical
