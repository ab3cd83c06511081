"""Per-client namespaces: durable ledgers and boot-time resume.

Each client namespace owns one journal at
``<data-dir>/<namespace>/journal.jsonl`` — the same JSONL ledger format
``sweep --resume`` replays, written fsync-per-event so an acknowledged
submission survives a SIGKILL of the server. The server journals a
``job_submitted`` event (embedding the full spec and priority) *before*
acknowledging a submission; together with the scheduler's ``job_end``
records that makes the journal a complete account of the namespace:

* last ``job_end`` per job id (the ``load_ledger`` view of
  :func:`repro.runtime.ledger.fold_journal`) — the job's
  terminal record, replayed into the job table on boot;
* ``job_submitted`` with no later ``job_end`` — work that was in
  flight (or queued) when the previous server died, re-enqueued on
  boot. Ordering matters: a job that crashed and was then accepted
  again (its last ``job_submitted`` appears *after* its last
  ``job_end``) is an acknowledged re-submission, so it is classified
  pending, not terminal — kill -9 loses nothing acknowledged.

A job whose last record is ``cancelled`` stays cancelled across
restarts — the client asked for that; crashed/timeout/error records are
also left terminal (unlike ``sweep --resume``, a server must not retry
a failing spec on every boot) and are re-enqueued only when a client
re-submits them.
"""

from __future__ import annotations

import os
import re
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.runtime.ledger import fold_journal
from repro.runtime.telemetry import TelemetryLogger

#: Namespaces map to directory names; keep them boring and portable.
_SAFE_NAMESPACE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

JOURNAL_NAME = "journal.jsonl"


def valid_namespace(name: str) -> bool:
    return bool(_SAFE_NAMESPACE.match(name)) and name not in (".", "..")


def scan_journal(
    path: str,
) -> Tuple[Dict[str, Dict[str, Any]], List[Dict[str, Any]]]:
    """Classify one namespace journal for boot-time resume.

    Returns ``(terminal, pending)``: the last-record-wins ledger view
    of terminal records, and the latest ``job_submitted`` event of
    every job whose last relevant record is a submission — no terminal
    record at all, or (an acknowledged re-submission of a failed job)
    a ``job_submitted`` after its last ``job_end``. Pending events are
    ordered by their position in the journal; a re-submitted job is
    excluded from ``terminal`` so the boot replay re-enqueues it
    instead of resurrecting the stale terminal record.
    """
    fold = fold_journal(path)
    pending_ids = sorted(
        (
            job_id
            for job_id, index in fold.submitted_at.items()
            if index > fold.ended_at.get(job_id, -1)
        ),
        key=fold.submitted_at.__getitem__,
    )
    waiting = set(pending_ids)
    terminal = {
        job_id: record
        for job_id, record in fold.ledger().items()
        if record.get("spec") and job_id not in waiting
    }
    pending = [fold.submitted[job_id] for job_id in pending_ids]
    return terminal, pending


class Namespace:
    """One client namespace: a directory plus its journal writer."""

    def __init__(self, root: str, name: str) -> None:
        self.name = name
        self.dir = os.path.join(root, name)
        os.makedirs(self.dir, exist_ok=True)
        self.journal_path = os.path.join(self.dir, JOURNAL_NAME)
        #: fsync-per-event: an acknowledged submission is on disk
        #: before the HTTP 202 leaves the server.
        self.logger = TelemetryLogger(self.journal_path, fsync=True)

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        return self.logger.emit(event, **fields)

    def close(self) -> None:
        self.logger.close()


class SessionStore:
    """All namespaces under one ``--data-dir`` (thread-safe)."""

    def __init__(self, data_dir: str) -> None:
        self.data_dir = data_dir
        os.makedirs(data_dir, exist_ok=True)
        self._lock = threading.Lock()
        self._namespaces: Dict[str, Namespace] = {}

    def namespace(self, name: str) -> Namespace:
        if not valid_namespace(name):
            raise ValueError(f"invalid namespace {name!r}")
        with self._lock:
            if name not in self._namespaces:
                self._namespaces[name] = Namespace(self.data_dir, name)
            return self._namespaces[name]

    def existing(self) -> List[str]:
        """Namespaces already on disk (sorted: deterministic resume)."""
        try:
            candidates = sorted(os.listdir(self.data_dir))
        except OSError:
            return []
        return [
            name
            for name in candidates
            if valid_namespace(name)
            and os.path.exists(
                os.path.join(self.data_dir, name, JOURNAL_NAME)
            )
        ]

    def close(self) -> None:
        with self._lock:
            for namespace in self._namespaces.values():
                namespace.close()
            self._namespaces.clear()


class RoutingTelemetry:
    """The telemetry facade handed to the server's ``Scheduler``.

    The scheduler knows one telemetry sink; the server multiplexes many
    namespaces through it. Events carrying a ``job_id`` are routed to
    the journal of the namespace owning that job; batch-level events
    (``sweep_start``/``sweep_end``/``scheduler_degraded``/...) land in
    a server-wide ``server.jsonl``. Every event is also offered to
    ``on_event`` so the server can mirror lifecycle transitions into
    the in-memory job table without a second journal read.
    """

    path = None

    def __init__(
        self,
        store: SessionStore,
        owner_of: Callable[[str], Optional[str]],
        on_event: Optional[Callable[[str, Dict[str, Any]], None]] = None,
    ) -> None:
        self._store = store
        self._owner_of = owner_of
        self._on_event = on_event
        self._server_log = TelemetryLogger(
            os.path.join(store.data_dir, "server.jsonl"), fsync=False
        )
        self.events_emitted = 0

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        job_id = fields.get("job_id")
        owner = self._owner_of(job_id) if job_id else None
        if owner is not None:
            record = self._store.namespace(owner).emit(event, **fields)
        else:
            record = self._server_log.emit(event, **fields)
        self.events_emitted += 1
        if self._on_event is not None:
            self._on_event(event, fields)
        return record

    def close(self) -> None:
        self._server_log.close()
