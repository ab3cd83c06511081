"""The ``repro serve`` job server.

One asyncio event loop serves HTTP; one background dispatcher thread
(bridged with ``loop.run_in_executor`` futures) feeds the existing
:class:`~repro.runtime.scheduler.Scheduler`. The split keeps the HTTP
side non-blocking — submit/poll/cancel/stream never wait on a solver —
while the batch runtime stays exactly the code path the one-shot CLI
uses, so a job submitted over HTTP produces the same content-addressed
id and the same canonical record as ``python -m repro <case> --json``.

Lifecycle of a submission:

1. ``POST /jobs`` validates the spec, registers it in the
   :class:`~repro.serve.queue.JobQueue` (content-addressed dedup) and
   journals ``job_submitted`` — fsynced — to the client namespace's
   ledger *before* the 202 leaves the server: an acknowledged job
   survives a SIGKILL.
2. The dispatcher claims a priority-ordered batch and runs it through
   the scheduler; ``job_start``/``job_end`` telemetry routes back into
   the namespace journal and mirrors into the job table. The
   scheduler's worker pool is created at the first batch and serves
   every later one, so workers (and their oracles) stay warm; the
   server closes it on shutdown, after the dispatcher drains.
3. ``GET /jobs/<id>/stream`` tails that journal with the
   torn-line-tolerant reader and relays the job's events as SSE. The
   stream sleeps until a journal write of its job wakes it (the
   writer, on whatever thread, hands the wakeup to the event loop);
   its only timer is the keepalive.

On boot the server replays every namespace ledger: terminal records
re-enter the job table (dedup returns them instantly), and jobs that
were submitted but never finished are re-enqueued — restart-and-resume
with no duplicate ``job_end`` records.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.exceptions import ExplorationError
from repro.runtime.job import JobResult, JobSpec
from repro.runtime.scheduler import Scheduler, default_workers
from repro.runtime.sweep import SweepReport
from repro.runtime.telemetry import tail_events
from repro.serve import protocol
from repro.serve.queue import JobEntry, JobQueue, QueueFull, TERMINAL_STATES
from repro.serve.session import RoutingTelemetry, SessionStore

DEFAULT_NAMESPACE = "default"


class JobServer:
    """Exploration-as-a-service over the batch runtime."""

    def __init__(
        self,
        data_dir: str,
        host: str = "127.0.0.1",
        port: int = 8765,
        workers: Optional[int] = None,
        max_queue: int = 1024,
        serial: bool = False,
        cache_path: Optional[str] = None,
        use_cache: bool = True,
        timeout: Optional[float] = None,
        retries: int = 1,
        batch_limit: Optional[int] = None,
        stream_keepalive: float = 15.0,
        dispatch: bool = True,
    ) -> None:
        self.host = host
        self.port = port
        self.workers = workers or default_workers()
        #: Idle seconds between SSE keepalive comments on /stream.
        self.stream_keepalive = stream_keepalive
        #: Jobs claimed per scheduler batch. Small enough that a burst
        #: of high-priority submissions jumps the line at the next
        #: batch boundary, large enough to keep the pool saturated.
        self.batch_limit = batch_limit or max(1, self.workers * 2)
        self._dispatch_enabled = dispatch
        self.queue = JobQueue(max_queue=max_queue)
        self.store = SessionStore(data_dir)
        self.telemetry = RoutingTelemetry(
            self.store, owner_of=self._owner_of, on_event=self._on_event
        )
        self.scheduler = Scheduler(
            max_workers=self.workers,
            serial=serial,
            telemetry=self.telemetry,
            cache_path=cache_path,
            use_cache=use_cache,
            timeout=timeout,
            retries=retries,
        )
        #: Called with the server once the socket is bound (CLI banner).
        self.on_ready = None
        self.resumed_jobs = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._stopping = threading.Event()
        #: The single dispatcher thread, owned so shutdown semantics
        #: (drain the in-flight batch, then exit) are ours to define.
        self._dispatch_pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-dispatch"
        )
        self._thread: Optional[threading.Thread] = None
        #: Open streams' wakeups per job id. Touched only on the event
        #: loop; other threads reach it through ``_wake_streams``.
        self._stream_wakeups: Dict[str, Set[asyncio.Event]] = {}

    # -- job table plumbing ----------------------------------------------------

    def _owner_of(self, job_id: str) -> Optional[str]:
        entry = self.queue.get(job_id)
        return entry.namespace if entry is not None else None

    def _on_event(self, event: str, fields: Dict[str, Any]) -> None:
        """Mirror scheduler telemetry into the in-memory job table."""
        job_id = fields.get("job_id")
        if not job_id:
            return
        if event == "job_start":
            self.queue.mark_running(job_id)
        elif event == "job_end":
            self.queue.finish(job_id, dict(fields))
        self._wake_streams(job_id)

    def _wake_streams(self, job_id: str) -> None:
        """Wake the job's open streams (any thread; after the write)."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._set_wakeups, job_id)

    def _set_wakeups(self, job_id: str) -> None:
        for wakeup in self._stream_wakeups.get(job_id, ()):
            wakeup.set()

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        namespace: str = DEFAULT_NAMESPACE,
        priority: int = 0,
        resumed: bool = False,
    ) -> Tuple[JobEntry, bool]:
        """Register a spec; journal the submission before acknowledging."""
        ns = self.store.namespace(namespace)
        entry, created = self.queue.submit(spec, namespace, priority)
        if created:
            # A stale cancel (from a previous submission of the same
            # spec) must not kill the fresh one.
            self.scheduler.uncancel(spec.job_id)
            ns.emit(
                "job_submitted",
                job_id=spec.job_id,
                spec=spec.to_dict(),
                priority=priority,
                namespace=namespace,
                resumed=resumed,
            )
        return entry, created

    def cancel(self, job_id: str) -> Optional[str]:
        """Best-effort cancel; returns the action taken (None: unknown)."""
        action = self.queue.cancel(job_id)
        if action == "cancelled":
            # Still queued server-side: the scheduler never saw it, so
            # this is the job's only terminal path — journal its single
            # ``job_end`` here.
            entry = self.queue.get(job_id)
            record = JobResult(
                job_id, entry.spec, "cancelled", attempts=0
            ).to_dict()
            self.store.namespace(entry.namespace).emit("job_end", **record)
            self.queue.finish(job_id, record)
            self._wake_streams(job_id)
        elif action == "requested":
            # In the dispatcher's hands: the scheduler retires it with
            # exactly one ``cancelled`` job_end unless it is already
            # executing (then it completes with its real outcome).
            self.scheduler.cancel(job_id)
        return action

    # -- boot-time resume ------------------------------------------------------

    def _resume_from_ledgers(self) -> None:
        """Rebuild the job table from every namespace ledger on disk."""
        from repro.serve.session import scan_journal

        for name in self.store.existing():
            ns = self.store.namespace(name)
            terminal, pending = scan_journal(ns.journal_path)
            for record in terminal.values():
                try:
                    spec = JobSpec.from_dict(record["spec"])
                except ExplorationError:
                    continue  # a spec this code no longer understands
                self.queue.submit(spec, name, replayed_record=record)
            for event in pending:
                try:
                    spec = JobSpec.from_dict(event["spec"])
                except ExplorationError:
                    continue
                try:
                    _, created = self.submit(
                        spec,
                        namespace=name,
                        priority=int(event.get("priority", 0)),
                        resumed=True,
                    )
                except QueueFull:
                    # A backlog larger than --max-queue must not abort
                    # boot: resume what fits, journal the overflow (the
                    # dropped job's job_submitted is still in the
                    # namespace ledger, so the next restart — or a
                    # client re-submission — picks it up again).
                    self.telemetry.emit(
                        "resume_overflow",
                        job_id=spec.job_id,
                        namespace=name,
                    )
                    continue
                if created:
                    self.resumed_jobs += 1

    # -- dispatcher ------------------------------------------------------------

    def _run_batch(self, batch: List[JobEntry]) -> None:
        """Execute one claimed batch on the scheduler (worker thread)."""
        for entry in batch:
            if entry.cancel_requested:
                self.scheduler.cancel(entry.job_id)
        results = self.scheduler.run([entry.spec for entry in batch])
        # Telemetry routing already finished each entry as its job_end
        # was journaled; finishing again from the returned results is a
        # safety net (finish() is idempotent).
        for entry, result in zip(batch, results):
            self.queue.finish(entry.job_id, result.to_dict())
            self._wake_streams(entry.job_id)

    async def _dispatch_loop(self) -> None:
        """Claim batches and bridge them onto the dispatcher thread."""
        loop = asyncio.get_running_loop()
        while not self._stopping.is_set():
            batch = await loop.run_in_executor(
                self._dispatch_pool, self.queue.claim_batch, self.batch_limit, 0.2
            )
            if not batch:
                continue
            await loop.run_in_executor(
                self._dispatch_pool, self._run_batch, batch
            )

    # -- HTTP ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await protocol.read_request(reader)
                if request is None:
                    return
                await self._route(request, writer)
            except protocol.ProtocolError as error:
                writer.write(
                    protocol.error_response(error.status, error.message)
                )
            except (ConnectionResetError, BrokenPipeError):
                return
            except Exception as error:  # never kill the accept loop
                writer.write(
                    protocol.error_response(500, f"internal error: {error!r}")
                )
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _route(
        self, request: protocol.Request, writer: asyncio.StreamWriter
    ) -> None:
        parts = [part for part in request.path.split("/") if part]
        method = request.method
        if request.path == "/healthz" and method == "GET":
            writer.write(protocol.json_response(200, self.health()))
        elif parts == ["jobs"] and method == "POST":
            writer.write(self._handle_submit(request))
        elif parts == ["jobs"] and method == "GET":
            views = self.queue.views(request.query.get("namespace"))
            writer.write(protocol.json_response(200, {"jobs": views}))
        elif len(parts) == 2 and parts[0] == "jobs" and method == "GET":
            writer.write(self._handle_poll(parts[1]))
        elif (
            len(parts) == 3
            and parts[0] == "jobs"
            and parts[2] == "result"
            and method == "GET"
        ):
            writer.write(self._handle_result(parts[1]))
        elif (
            len(parts) == 3
            and parts[0] == "jobs"
            and parts[2] == "cancel"
            and method == "POST"
        ):
            writer.write(self._handle_cancel(parts[1]))
        elif (
            len(parts) == 3
            and parts[0] == "jobs"
            and parts[2] == "stream"
            and method == "GET"
        ):
            await self._handle_stream(parts[1], writer)
        elif len(parts) == 2 and parts[0] == "namespaces" and method == "GET":
            writer.write(self._handle_namespace(parts[1]))
        else:
            raise protocol.ProtocolError(
                404 if method in ("GET", "POST") else 405,
                f"no route for {method} {request.path}",
            )

    def _handle_submit(self, request: protocol.Request) -> bytes:
        payload = request.json()
        spec_data = payload.get("spec")
        if not isinstance(spec_data, dict):
            raise protocol.ProtocolError(400, "missing 'spec' object")
        try:
            spec = JobSpec.from_dict(spec_data)
        except ExplorationError as error:
            raise protocol.ProtocolError(400, f"invalid spec: {error}")
        except (KeyError, TypeError) as error:
            raise protocol.ProtocolError(400, f"malformed spec: {error!r}")
        namespace = str(payload.get("namespace", DEFAULT_NAMESPACE))
        try:
            priority = int(payload.get("priority", 0))
        except (TypeError, ValueError):
            raise protocol.ProtocolError(400, "priority must be an integer")
        try:
            entry, created = self.submit(spec, namespace, priority)
        except ValueError as error:  # bad namespace
            raise protocol.ProtocolError(400, str(error))
        except QueueFull as error:
            raise protocol.ProtocolError(429, str(error))
        body = dict(entry.view(), created=created)
        return protocol.json_response(202 if created else 200, body)

    def _entry_or_404(self, job_id: str) -> JobEntry:
        entry = self.queue.get(job_id)
        if entry is None:
            raise protocol.ProtocolError(404, f"unknown job {job_id!r}")
        return entry

    def _handle_poll(self, job_id: str) -> bytes:
        return protocol.json_response(200, self._entry_or_404(job_id).view())

    def _handle_result(self, job_id: str) -> bytes:
        entry = self._entry_or_404(job_id)
        if entry.state not in TERMINAL_STATES or entry.result is None:
            raise protocol.ProtocolError(
                409, f"job {job_id!r} is {entry.state}; no result yet"
            )
        return protocol.json_response(
            200, {"job_id": job_id, "replayed": entry.replayed,
                  "result": entry.result}
        )

    def _handle_cancel(self, job_id: str) -> bytes:
        self._entry_or_404(job_id)
        action = self.cancel(job_id)
        return protocol.json_response(
            200,
            dict(self.queue.get(job_id).view(), action=action),
        )

    def _handle_namespace(self, name: str) -> bytes:
        ns = self.store.namespace(name) if name in self.store.existing() else None
        if ns is None:
            raise protocol.ProtocolError(404, f"unknown namespace {name!r}")
        report = SweepReport.from_journal(ns.journal_path)
        statuses: Dict[str, int] = {}
        for result in report.results:
            statuses[result.status] = statuses.get(result.status, 0) + 1
        return protocol.json_response(
            200,
            {
                "namespace": name,
                "jobs": len(report.results),
                "statuses": statuses,
                "cache_totals": report.cache_totals,
                "total_job_time": report.total_job_time,
            },
        )

    async def _handle_stream(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        """SSE: relay the job's journal events until it is terminal."""
        entry = self._entry_or_404(job_id)
        path = self.store.namespace(entry.namespace).journal_path
        writer.write(protocol.sse_preamble())
        await writer.drain()
        wakeup = asyncio.Event()
        wakeups = self._stream_wakeups.setdefault(job_id, set())
        wakeups.add(wakeup)
        offset = 0
        try:
            while True:
                # Clear first: a write landing after this point sets
                # the wakeup again, so the wait below cannot miss it.
                wakeup.clear()
                # Order matters: read the entry state BEFORE tailing.
                # The journal write precedes the table flip to
                # terminal (a queue-side cancel flips first but writes
                # before it returns to the loop), so a terminal state
                # observed here guarantees the job_end is already on
                # disk and this pass's tail read relays it —
                # stream_end can never race ahead of the terminal
                # record.
                current = self.queue.get(job_id)
                terminal = current is None or current.state in TERMINAL_STATES
                records, offset = tail_events(path, offset)
                for record in records:
                    if record.get("job_id") == job_id:
                        writer.write(protocol.sse_event(record))
                if terminal:
                    state = current.state if current is not None else "unknown"
                    writer.write(
                        protocol.sse_event(
                            {"event": "stream_end", "job_id": job_id,
                             "state": state}
                        )
                    )
                    await writer.drain()
                    return
                await writer.drain()
                try:
                    await asyncio.wait_for(
                        wakeup.wait(), self.stream_keepalive
                    )
                except asyncio.TimeoutError:
                    # SSE comment: keeps quiet long-running jobs from
                    # tripping client/proxy read timeouts; clients
                    # ignore comment frames.
                    writer.write(protocol.sse_comment("keepalive"))
        finally:
            wakeups.discard(wakeup)
            if not wakeups:
                self._stream_wakeups.pop(job_id, None)

    def health(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "queue": self.queue.counts(),
            "depth": self.queue.depth(),
            "workers": self.workers,
            "serial": self.scheduler.serial,
            "batch_limit": self.batch_limit,
            "data_dir": self.store.data_dir,
            "resumed_jobs": self.resumed_jobs,
        }

    # -- lifecycle -------------------------------------------------------------

    async def _main(self, ready: Optional[threading.Event] = None) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._resume_from_ledgers()
        server = await asyncio.start_server(
            self._handle,
            self.host,
            self.port,
            limit=protocol.MAX_HEADER_BYTES,
        )
        self.port = server.sockets[0].getsockname()[1]
        dispatch_task = (
            asyncio.ensure_future(self._dispatch_loop())
            if self._dispatch_enabled
            else None
        )
        if self.on_ready is not None:
            self.on_ready(self)
        if ready is not None:
            ready.set()
        try:
            async with server:
                await self._stop_event.wait()
        finally:
            self._stopping.set()
            self.queue.stop()
            try:
                if dispatch_task is not None:
                    # Graceful drain: the in-flight batch finishes (jobs
                    # have worker-side deadlines when --timeout is set).
                    await dispatch_task
                self._dispatch_pool.shutdown(wait=True)
            finally:
                # The worker pool outlives every batch, not the server.
                self.scheduler.close()
                self.store.close()
                self.telemetry.close()

    def run_forever(self) -> int:
        """Blocking CLI entry point; Ctrl-C drains and exits 0."""
        try:
            asyncio.run(self._main())
        except KeyboardInterrupt:
            pass
        return 0

    def stop(self) -> None:
        """Request shutdown from any thread (idempotent)."""
        self._stopping.set()
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)

    # -- embedding (tests) -----------------------------------------------------

    def start_background(self, timeout: float = 10.0) -> int:
        """Run the event loop in a daemon thread; returns the bound port."""
        ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main(ready)),
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        if not ready.wait(timeout):
            raise RuntimeError("server failed to start in time")
        return self.port

    def stop_background(self, timeout: float = 30.0) -> None:
        self.stop()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
