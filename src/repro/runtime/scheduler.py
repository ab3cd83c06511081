"""Fan jobs out over a process pool with timeouts, retries, telemetry.

The :class:`Scheduler` turns a list of :class:`JobSpec` into a list of
:class:`JobResult`:

* ``serial=True`` runs jobs in-process (no pool) — useful as the
  baseline arm of benchmarks and anywhere fork overhead dwarfs the
  work;
* otherwise jobs are submitted to a ``ProcessPoolExecutor`` that lives
  as long as the scheduler: the first pooled :meth:`Scheduler.run`
  creates it, later runs reuse its warm workers (and each worker's
  oracle, see :mod:`repro.runtime.worker`), and :meth:`Scheduler.close`
  ends it. A worker that *returns* an error record consumed its own
  exception; a worker process that dies (segfault, OOM kill) surfaces
  as ``BrokenProcessPool`` — every future that completed in the same
  poll batch is harvested first, then the pool is rebuilt and the
  affected jobs are resubmitted (exponential backoff, jitter seeded
  from the job id so retry trajectories are reproducible) up to
  ``retries`` times before being reported as ``crashed``. A pool found
  dead at submission (a worker killed between runs) is rebuilt without
  charging the job an attempt. After ``max_rebuilds`` pool rebuilds in
  one run the scheduler stops thrashing and degrades to the serial
  in-process path for whatever remains.
* ``timeout`` bounds each job's wall clock. Enforcement is primarily
  *worker-side* (see :func:`repro.runtime.worker.run_job`): the worker
  returns a ``timeout`` record and its pool slot is immediately
  reusable. The parent keeps a lenient backstop for workers that stop
  responding entirely; its clock starts when the job is observed
  *running* — a job queued behind busy workers is never expired without
  having executed. A run whose backstop abandoned a future shuts its
  pool down when it ends, so no wedged worker is handed to the next
  run.
* ``KeyboardInterrupt`` cancels everything pending, drops the pool and
  returns the results gathered so far (each un-run job reported as
  ``cancelled``).
* :meth:`Scheduler.cancel` retires one job by id from any thread — the
  seam the ``repro serve`` job server uses for its cancel endpoint. A
  job still queued (including one in a crash-retry backoff window) is
  terminated with exactly one ``cancelled`` ``job_end``; a job already
  executing completes with its real outcome.

The telemetry journal is the only record of a job's lifecycle:
``job_start`` per attempt, ``job_retry``/``job_timeout`` incidents, and
exactly one ``job_end`` for every :class:`JobResult` that :meth:`run`
returns, written on one path (``_emit_end``). The journal doubles as
the durable run ledger that ``sweep --resume`` replays (see
:mod:`repro.runtime.ledger`)."""

from __future__ import annotations

import concurrent.futures
import hashlib
import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Set

from repro.runtime.job import JobResult, JobSpec
from repro.runtime.telemetry import NullTelemetry
from repro.runtime.worker import hard_deadline_grace, init_worker, run_job


def default_workers() -> int:
    """Default pool size: all cores but one (at least one)."""
    return max(1, (os.cpu_count() or 2) - 1)


def backoff_delay(
    job_id: str, attempt: int, base: float = 0.25, cap: float = 5.0
) -> float:
    """Crash-resubmission delay: exponential backoff, deterministic jitter.

    The jitter factor (0.5–1.0x) is derived from ``(job_id, attempt)``,
    not from a PRNG — the same sweep crashing the same way waits the
    same amount, so retry trajectories (and their telemetry) are
    reproducible.
    """
    raw = min(cap, base * (2.0 ** max(0, attempt - 1)))
    digest = hashlib.sha256(f"{job_id}:{attempt}".encode("utf-8")).digest()
    unit = int.from_bytes(digest[:4], "big") / 2**32
    return raw * (0.5 + 0.5 * unit)


class _Pending:
    """Book-keeping for one in-flight (or backing-off) job."""

    __slots__ = ("spec", "attempts", "submitted", "started_at", "not_before")

    def __init__(
        self, spec: JobSpec, attempts: int, not_before: float = 0.0
    ) -> None:
        self.spec = spec
        self.attempts = attempts
        #: When the job was last handed to the executor.
        self.submitted = 0.0
        #: When the job was first *observed running* — the parent-side
        #: timeout clock starts here, never at submission (a queued job
        #: must not be expired without having executed).
        self.started_at: Optional[float] = None
        #: Earliest submission time (crash backoff).
        self.not_before = not_before


class Scheduler:
    """Run exploration jobs serially or over a process pool."""

    def __init__(
        self,
        max_workers: Optional[int] = None,
        timeout: Optional[float] = None,
        retries: int = 1,
        cache_path: Optional[str] = None,
        use_cache: bool = True,
        telemetry=None,
        serial: bool = False,
        poll_interval: float = 0.2,
        max_rebuilds: int = 3,
        backoff_base: float = 0.25,
        backoff_cap: float = 5.0,
        timeout_grace: Optional[float] = None,
    ) -> None:
        self.max_workers = max_workers or default_workers()
        self.timeout = timeout
        self.retries = retries
        self.cache_path = cache_path
        self.use_cache = use_cache
        self.telemetry = telemetry if telemetry is not None else NullTelemetry()
        self.serial = serial
        self.poll_interval = poll_interval
        #: Pool rebuilds tolerated before degrading to serial in-parent
        #: execution (a machine-level fault — bad RAM, cgroup OOM loops —
        #: makes every rebuild die the same way; thrashing helps nobody).
        self.max_rebuilds = max_rebuilds
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        #: Extra slack the parent-side timeout backstop grants on top of
        #: the worker-side deadline (which fires first in any live
        #: worker); ``None`` picks a lenient default.
        if timeout_grace is None and timeout is not None:
            timeout_grace = hard_deadline_grace(timeout) + max(2.0, 0.5 * timeout)
        self.timeout_grace = timeout_grace or 0.0
        #: Pool rebuilds performed during the current :meth:`run`.
        self.rebuilds = 0
        #: True once this run degraded to serial in-parent execution.
        self.degraded = False
        #: Job-level cancellation requests, settable from any thread
        #: (the ``repro serve`` dispatcher cancels jobs mid-batch on
        #: behalf of HTTP clients). Only the :meth:`run` thread mutates
        #: queue/future book-keeping; this set is the sole cross-thread
        #: channel, so each cancelled job reaches exactly one terminal
        #: path and emits exactly one ``job_end``.
        self._cancel_lock = threading.Lock()
        self._cancel_requested: Set[str] = set()
        #: The worker pool, created by the first pooled run and kept
        #: until :meth:`close` (or until a run must discard it).
        self._executor: Optional[concurrent.futures.ProcessPoolExecutor] = None

    # -- public API ------------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down and wait for it (idempotent).

        The one place a healthy pool ends; every owner of a pooled
        scheduler calls it (or uses the scheduler as a context
        manager). A later :meth:`run` would start a new pool.
        """
        self._end_pool(wait=True)

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def cancel(self, job_id: str) -> None:
        """Request cancellation of a job (thread-safe, idempotent).

        Takes effect at the next scheduling point of the current (or
        next) :meth:`run`: a job still queued — including one sitting
        out a crash-retry backoff window — is retired with a single
        terminal ``job_end`` of status ``cancelled`` and is never
        (re)submitted. A job already executing in a worker cannot be
        interrupted and completes with its real outcome; the stale
        request is dropped when its terminal record is emitted.
        """
        with self._cancel_lock:
            self._cancel_requested.add(job_id)

    def uncancel(self, job_id: str) -> None:
        """Withdraw a pending cancellation (e.g. on deliberate resubmit)."""
        with self._cancel_lock:
            self._cancel_requested.discard(job_id)

    def _is_cancelled(self, job_id: str) -> bool:
        with self._cancel_lock:
            return job_id in self._cancel_requested

    def run(self, specs: Sequence[JobSpec]) -> List[JobResult]:
        """Execute all jobs; results come back in input order."""
        self.rebuilds = 0
        self.degraded = False
        self.telemetry.emit(
            "sweep_start",
            jobs=len(specs),
            workers=1 if self.serial else self.max_workers,
            serial=self.serial,
            cache_path=self.cache_path,
        )
        started = time.perf_counter()
        queue = [_Pending(spec, 1) for spec in specs]
        by_id: Dict[str, JobResult] = {}
        try:
            if self.serial:
                self._run_inline(queue, by_id)
            else:
                self._run_pooled(queue, by_id)
        except KeyboardInterrupt:
            # Every job without a terminal record — queued, backing off
            # or in flight — is retired as cancelled.
            self.telemetry.emit("sweep_cancelled", completed=len(by_id))
            attempts = {p.spec.job_id: p.attempts for p in queue}
            for spec in specs:
                if spec.job_id not in by_id:
                    pending = _Pending(spec, attempts.get(spec.job_id, 1))
                    self._finish_cancelled(pending, by_id)
        results = [by_id[spec.job_id] for spec in specs]
        statuses: Dict[str, int] = {}
        for result in results:
            statuses[result.status] = statuses.get(result.status, 0) + 1
        self.telemetry.emit(
            "sweep_end",
            jobs=len(specs),
            wall_clock=time.perf_counter() - started,
            statuses=statuses,
        )
        return results

    # -- in-process path --------------------------------------------------------

    def _run_inline(
        self, queue: List[_Pending], by_id: Dict[str, JobResult]
    ) -> None:
        """Run queued jobs one after another in this process.

        The ``serial=True`` path, and the degraded mode a pool that keeps
        dying falls back to: slower, but it cannot crash-loop, and
        worker-side deadlines still apply. Degraded ``job_start`` events
        carry the attempt number and ``inline=True``. A job leaves the
        queue only after its terminal record, so an interrupt cancels the
        job in flight and those behind it, never a finished one.
        """
        while queue:
            pending = queue[0]
            spec = pending.spec
            if self._is_cancelled(spec.job_id):
                self._finish_cancelled(pending, by_id)
            else:
                fallback = (
                    {"attempt": pending.attempts, "inline": True}
                    if self.degraded
                    else {}
                )
                self.telemetry.emit(
                    "job_start", job_id=spec.job_id, label=spec.label, **fallback
                )
                record = run_job(
                    spec.to_dict(),
                    cache_path=self.cache_path,
                    use_cache=self.use_cache,
                    deadline=self.timeout,
                )
                record["attempts"] = pending.attempts
                self._emit_end(JobResult.from_dict(record), by_id)
            queue.pop(0)

    # -- pooled path ------------------------------------------------------------

    def _run_pooled(
        self, queue: List[_Pending], by_id: Dict[str, JobResult]
    ) -> None:
        futures: Dict[concurrent.futures.Future, _Pending] = {}
        abandoned = False
        try:
            while queue or futures:
                if self.degraded:
                    self._run_inline(queue, by_id)
                    break
                if self._executor is None:
                    self._executor = self._new_executor()
                now = time.perf_counter()
                self._apply_cancellations(futures, queue, by_id)
                broken = self._submit_eligible(queue, futures, now)
                if futures:
                    done, _ = concurrent.futures.wait(
                        futures,
                        timeout=self.poll_interval,
                        return_when=concurrent.futures.FIRST_COMPLETED,
                    )
                elif not queue:
                    # Cancellation just retired the last pending job;
                    # nothing is in flight, so the loop is done.
                    break
                else:
                    # Everything runnable is backing off; sleep until
                    # the earliest becomes eligible (bounded by the poll
                    # interval so cancellation stays responsive).
                    wake = min(p.not_before for p in queue)
                    time.sleep(
                        min(self.poll_interval, max(0.0, wake - now)) or 0.01
                    )
                    done = set()
                # Harvest *every* completed future in this batch before
                # reacting to a pool break: futures that finished
                # alongside the fatal one carry real results, and
                # re-running them would double-emit their lifecycle.
                for future in done:
                    pending = futures.pop(future)
                    if isinstance(future.exception(), BrokenProcessPool):
                        broken = True
                    self._collect(future, pending, queue, by_id)
                if broken:
                    # The pool is unusable after a worker death; drop it
                    # (the next pass builds a new one) and resubmit only
                    # what is genuinely in flight.
                    self._end_pool(wait=False)
                    self.rebuilds += 1
                    queue.extend(futures.values())
                    futures.clear()
                    if self.rebuilds > self.max_rebuilds:
                        self.degraded = True
                        self.telemetry.emit(
                            "scheduler_degraded",
                            rebuilds=self.rebuilds,
                            remaining=len(queue),
                        )
                    continue
                self._note_running(futures)
                abandoned |= self._expire_timeouts(futures, by_id)
        except KeyboardInterrupt:
            self._end_pool(wait=False)
            queue[:0] = futures.values()  # :meth:`run` cancels them
            raise
        if abandoned:
            # A worker is still wedged in an abandoned job: the next run
            # must not queue behind it.
            self._end_pool(wait=True)

    def _new_executor(self) -> concurrent.futures.ProcessPoolExecutor:
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.max_workers,
            initializer=init_worker,
        )

    def _end_pool(self, wait: bool) -> None:
        """Drop the pool; without ``wait``, cancel its queued futures."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=not wait)

    def _submit_eligible(
        self,
        queue: List[_Pending],
        futures: Dict[concurrent.futures.Future, _Pending],
        now: float,
    ) -> bool:
        """Move runnable queue entries into the pool (keeps a 2x
        submission buffer so workers never idle between polls; jobs
        still backing off are skipped, not reordered).

        Returns True when the pool turned out dead at submission (a
        worker was killed while idle). The job never ran, so it stays
        queued with its attempt count unchanged.
        """
        index = 0
        while index < len(queue) and len(futures) < self.max_workers * 2:
            pending = queue[index]
            if pending.not_before > now:
                index += 1
                continue
            try:
                future = self._submit(pending)
            except BrokenProcessPool:
                return True
            queue.pop(index)
            pending.submitted = now
            pending.started_at = None
            self.telemetry.emit(
                "job_start",
                job_id=pending.spec.job_id,
                label=pending.spec.label,
                attempt=pending.attempts,
            )
            futures[future] = pending
        return False

    def _submit(self, pending: _Pending) -> concurrent.futures.Future:
        return self._executor.submit(
            run_job,
            pending.spec.to_dict(),
            cache_path=self.cache_path,
            use_cache=self.use_cache,
            deadline=self.timeout,
        )

    def _finish_cancelled(
        self, pending: _Pending, by_id: Dict[str, JobResult]
    ) -> None:
        """Retire a cancelled job: one terminal ``cancelled`` record."""
        result = JobResult(
            pending.spec.job_id,
            pending.spec,
            "cancelled",
            attempts=pending.attempts,
        )
        self._emit_end(result, by_id)

    def _apply_cancellations(
        self,
        futures: Dict[concurrent.futures.Future, _Pending],
        queue: List[_Pending],
        by_id: Dict[str, JobResult],
    ) -> None:
        """Retire every cancel-requested job that has not started.

        Covers both plainly queued jobs and jobs sitting out a crash
        backoff window, plus submitted-but-not-yet-running futures the
        executor agrees to drop. Jobs already executing are left alone
        (a pool worker cannot be interrupted mid-job); their stale
        request is discarded at terminal-record time.
        """
        with self._cancel_lock:
            wanted = set(self._cancel_requested)
        if not wanted:
            return
        keep: List[_Pending] = []
        for pending in queue:
            if pending.spec.job_id in wanted:
                self._finish_cancelled(pending, by_id)
            else:
                keep.append(pending)
        queue[:] = keep
        for future, pending in list(futures.items()):
            if pending.spec.job_id in wanted and future.cancel():
                del futures[future]
                self._finish_cancelled(pending, by_id)

    def _requeue_or_fail(
        self,
        pending: _Pending,
        future: concurrent.futures.Future,
        queue: List[_Pending],
        by_id: Dict[str, JobResult],
    ) -> None:
        """Retry (with backoff) or fail a job whose worker died."""
        error = future.exception()
        if self._is_cancelled(pending.spec.job_id):
            # Cancelled while (or after) crashing: the pending retry
            # must not resubmit the job. Retire it here — this is the
            # only terminal path it takes, so exactly one ``job_end``
            # (status ``cancelled``) reaches the ledger.
            self._finish_cancelled(pending, by_id)
            return
        if pending.attempts <= self.retries:
            delay = backoff_delay(
                pending.spec.job_id,
                pending.attempts,
                base=self.backoff_base,
                cap=self.backoff_cap,
            )
            self.telemetry.emit(
                "job_retry",
                job_id=pending.spec.job_id,
                attempt=pending.attempts,
                error=repr(error),
                backoff=delay,
            )
            queue.append(
                _Pending(
                    pending.spec,
                    pending.attempts + 1,
                    not_before=time.perf_counter() + delay,
                )
            )
            return
        result = JobResult(
            pending.spec.job_id,
            pending.spec,
            "crashed",
            error=repr(error),
            attempts=pending.attempts,
        )
        self._emit_end(result, by_id)

    def _collect(
        self,
        future: concurrent.futures.Future,
        pending: _Pending,
        queue: List[_Pending],
        by_id: Dict[str, JobResult],
    ) -> None:
        """Turn a completed future into a result, or requeue on failure."""
        error = future.exception()
        if error is None:
            record = future.result()
            record["attempts"] = pending.attempts
            self._emit_end(JobResult.from_dict(record), by_id)
            return
        # A worker death or a submit-level exception: retry with the
        # backoff policy, then report crashed.
        self._requeue_or_fail(pending, future, queue, by_id)

    def _note_running(
        self, futures: Dict[concurrent.futures.Future, _Pending]
    ) -> None:
        """Stamp the parent-side clock of jobs observed executing."""
        for future, pending in futures.items():
            if pending.started_at is None and future.running():
                pending.started_at = time.perf_counter()

    def _expire_timeouts(
        self,
        futures: Dict[concurrent.futures.Future, _Pending],
        by_id: Dict[str, JobResult],
    ) -> bool:
        """Parent-side backstop for workers that stopped responding.

        Worker-side deadlines (cooperative clamp + hard alarm) handle
        every job that is actually executing Python; this path only
        fires — after generous extra grace — when a worker is wedged
        beyond even SIGALRM (e.g. stuck in a C call with signals
        blocked). The future cannot be interrupted; it is abandoned,
        journaled as a ``job_timeout`` incident, and ended as
        ``timeout``. Returns True when it abandoned a future.
        """
        if self.timeout is None:
            return False
        limit = self.timeout + self.timeout_grace
        now = time.perf_counter()
        abandoned = False
        for future, pending in list(futures.items()):
            if pending.started_at is None:
                continue  # never started executing: not its fault
            if now - pending.started_at <= limit:
                continue
            future.cancel()
            del futures[future]
            self.telemetry.emit(
                "job_timeout",
                job_id=pending.spec.job_id,
                after=self.timeout,
                stage="parent-backstop",
            )
            result = JobResult(
                pending.spec.job_id,
                pending.spec,
                "timeout",
                error=(
                    f"parent-side backstop: no response "
                    f"{limit:g}s after start"
                ),
                attempts=pending.attempts,
                duration=now - pending.started_at,
            )
            self._emit_end(result, by_id)
            abandoned = True
        return abandoned

    def _emit_end(self, result: JobResult, by_id: Dict[str, JobResult]) -> None:
        """The one terminal path: record the result, journal its ``job_end``."""
        # A cancel that arrived while the job was already executing is
        # unenforceable; drop it with the terminal record so a later
        # resubmission of the same spec is not spuriously cancelled.
        self.uncancel(result.job_id)
        by_id[result.job_id] = result
        self.telemetry.emit("job_end", **result.to_dict())
