"""Scheduler tests: serial path, pooled fan-out, retry, cancel, timeout."""

import concurrent.futures
import io
import json
import threading
import time

import pytest

from concurrent.futures.process import BrokenProcessPool

from repro.runtime import faults
from repro.runtime.job import JobSpec
from repro.runtime.scheduler import Scheduler, _Pending, default_workers
from repro.runtime.telemetry import TelemetryLogger
from tests.test_runtime.test_faults import thrash_plan


def _tiny_specs(n=2):
    return [
        JobSpec(
            "rpl",
            sizes={"n_a": 1, "n_b": 0},
            engine={"scenario": scenario, "max_iterations": 200},
            label=f"tiny {scenario}",
        )
        for scenario in ["complete", "only-iso", "only-decomp"][:n]
    ]


def _events(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines() if line]


def assert_one_end_per_result(stream, results):
    """Every returned result has exactly one ``job_end``, same status."""
    ends = [e for e in _events(stream) if e["event"] == "job_end"]
    assert sorted(e["job_id"] for e in ends) == sorted(r.job_id for r in results)
    journaled = {e["job_id"]: e["status"] for e in ends}
    assert [journaled[r.job_id] for r in results] == [r.status for r in results]


class TestSerial:
    def test_runs_all_jobs_in_order(self):
        specs = _tiny_specs()
        results = Scheduler(serial=True, use_cache=False).run(specs)
        assert [r.job_id for r in results] == [s.job_id for s in specs]
        assert all(r.status == "optimal" for r in results)
        assert all(r.duration > 0 for r in results)

    def test_worker_exception_becomes_error_record(self, monkeypatch):
        # A scenario is only resolved when the worker builds the
        # explorer, so the worker's own try/except (not the scheduler)
        # reports the failure.
        specs = [JobSpec("rpl", sizes={"n_a": 1}, engine={"scenario": "bogus"})]
        results = Scheduler(serial=True, use_cache=False).run(specs)
        assert results[0].status == "error"
        assert "bogus" in results[0].error

    def test_telemetry_lifecycle(self):
        stream = io.StringIO()
        telemetry = TelemetryLogger(stream)
        Scheduler(serial=True, use_cache=False, telemetry=telemetry).run(
            _tiny_specs(1)
        )
        events = [line for line in stream.getvalue().splitlines() if line]
        assert len(events) == 4  # sweep_start, job_start, job_end, sweep_end


class TestPooled:
    def test_pool_runs_grid(self):
        specs = _tiny_specs()
        results = Scheduler(max_workers=2, use_cache=False).run(specs)
        assert [r.job_id for r in results] == [s.job_id for s in specs]
        assert all(r.status == "optimal" for r in results)

    def test_shared_disk_cache_across_workers(self, tmp_path):
        cache = str(tmp_path / "oracle.db")
        scheduler = Scheduler(max_workers=2, cache_path=cache)
        cold = scheduler.run(_tiny_specs())
        warm = Scheduler(max_workers=2, cache_path=cache).run(_tiny_specs())
        assert all(r.status == "optimal" for r in cold + warm)
        hits = sum(r.cache["hits"] for r in warm)
        misses = sum(r.cache["misses"] for r in warm)
        assert hits > 0 and misses == 0  # fully warm-started


class _FakeExecutor:
    """Executor double whose first N submissions die like a crashed worker."""

    def __init__(self, crashes):
        self.crashes = crashes
        self.submitted = 0

    def submit(self, fn, *args, **kwargs):
        future = concurrent.futures.Future()
        self.submitted += 1
        if self.crashes > 0:
            self.crashes -= 1
            future.set_exception(BrokenProcessPool("worker died"))
        else:
            future.set_result(fn(*args, **kwargs))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestRetry:
    def _patched(self, monkeypatch, crashes, retries):
        scheduler = Scheduler(max_workers=1, retries=retries, use_cache=False)
        state = {"executor": _FakeExecutor(crashes)}

        def new_executor():
            # The scheduler rebuilds the pool after a BrokenProcessPool;
            # hand it the same double so the crash budget carries over.
            return state["executor"]

        monkeypatch.setattr(scheduler, "_new_executor", new_executor)
        return scheduler, state["executor"]

    def test_crash_then_success_is_retried(self, monkeypatch):
        scheduler, executor = self._patched(monkeypatch, crashes=1, retries=1)
        results = scheduler.run(_tiny_specs(1))
        assert results[0].status == "optimal"
        assert results[0].attempts == 2
        assert executor.submitted == 2

    def test_retries_exhausted_reports_crashed(self, monkeypatch):
        scheduler, executor = self._patched(monkeypatch, crashes=5, retries=1)
        results = scheduler.run(_tiny_specs(1))
        assert results[0].status == "crashed"
        assert results[0].attempts == 2
        assert "worker died" in results[0].error


class TestBrokenBatchHarvest:
    """A pool break must not discard results that completed alongside it."""

    def test_completed_future_in_broken_batch_is_not_rerun(self, monkeypatch):
        # Submission 1 dies like a crashed worker, submission 2 (same
        # poll batch, one-worker buffer) completes. The finished job
        # must be harvested — not re-enqueued by the rebuild — so it
        # runs exactly once.
        specs = _tiny_specs(2)
        stream = io.StringIO()
        scheduler = Scheduler(
            max_workers=1,
            retries=1,
            use_cache=False,
            telemetry=TelemetryLogger(stream),
            backoff_base=0.01,
            poll_interval=0.05,
        )
        executor = _FakeExecutor(crashes=1)
        monkeypatch.setattr(scheduler, "_new_executor", lambda: executor)
        results = scheduler.run(specs)
        assert [r.status for r in results] == ["optimal", "optimal"]
        # 3 submissions: crash, batch-mate, retry of the crash. The old
        # break-on-first-broken loop re-ran the batch-mate (4th).
        assert executor.submitted == 3
        events = [
            json.loads(line) for line in stream.getvalue().splitlines() if line
        ]
        starts = [e["job_id"] for e in events if e["event"] == "job_start"]
        ends = [e["job_id"] for e in events if e["event"] == "job_end"]
        assert starts.count(specs[1].job_id) == 1  # never re-submitted
        assert ends.count(specs[1].job_id) == 1  # job_end not double-emitted
        assert starts.count(specs[0].job_id) == 2  # crash + retry


class TestCancel:
    """Cross-thread cancellation retires jobs with one terminal record."""

    def test_primed_cancel_serial_skips_execution(self):
        specs = _tiny_specs(2)
        stream = io.StringIO()
        scheduler = Scheduler(
            serial=True, use_cache=False, telemetry=TelemetryLogger(stream)
        )
        scheduler.cancel(specs[0].job_id)
        results = scheduler.run(specs)
        assert [r.status for r in results] == ["cancelled", "optimal"]
        events = _events(stream)
        ends = [e for e in events if e["event"] == "job_end"]
        assert [e["job_id"] for e in ends].count(specs[0].job_id) == 1
        # The cancelled job never started.
        starts = [e["job_id"] for e in events if e["event"] == "job_start"]
        assert specs[0].job_id not in starts

    def test_primed_cancel_pooled_never_submits(self, monkeypatch):
        specs = _tiny_specs(2)
        scheduler = Scheduler(max_workers=1, use_cache=False)
        executor = _FakeExecutor(crashes=0)
        monkeypatch.setattr(scheduler, "_new_executor", lambda: executor)
        scheduler.cancel(specs[0].job_id)
        results = scheduler.run(specs)
        by_id = {r.job_id: r for r in results}
        assert by_id[specs[0].job_id].status == "cancelled"
        assert by_id[specs[1].job_id].status == "optimal"
        assert executor.submitted == 1  # only the surviving job

    def test_cancel_during_backoff_window_is_not_retried(self, monkeypatch):
        # Regression: a crashed job waiting out its retry backoff used
        # to ignore cancellation — the pending resubmission went ahead
        # and the job ran again anyway. The cancel must win the race:
        # no resubmission, exactly one terminal job_end, status
        # ``cancelled``.
        spec = _tiny_specs(1)[0]
        stream = io.StringIO()
        scheduler = Scheduler(
            max_workers=1,
            retries=3,
            use_cache=False,
            telemetry=TelemetryLogger(stream),
            poll_interval=0.02,
            # Backoff of >= 2.5s: the timer below fires mid-window.
            backoff_base=5.0,
        )
        executor = _FakeExecutor(crashes=1)
        monkeypatch.setattr(scheduler, "_new_executor", lambda: executor)
        timer = threading.Timer(0.2, scheduler.cancel, args=[spec.job_id])
        timer.start()
        started = time.perf_counter()
        try:
            results = scheduler.run([spec])
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - started
        assert results[0].status == "cancelled"
        assert executor.submitted == 1  # the crash; never the retry
        # run() returned as soon as the cancel landed — it did not sit
        # out the multi-second backoff window.
        assert elapsed < 2.0
        events = _events(stream)
        ends = [e for e in events if e["event"] == "job_end"]
        assert len(ends) == 1 and ends[0]["status"] == "cancelled"
        retries = [e for e in events if e["event"] == "job_retry"]
        assert len(retries) == 1  # the crash was requeued once...
        assert executor.submitted == 1  # ...but never re-executed

    def test_terminal_emission_clears_stale_cancel(self):
        # A cancel consumed by a terminal record must not linger and
        # kill a later resubmission of the same content-addressed spec.
        spec = _tiny_specs(1)[0]
        scheduler = Scheduler(serial=True, use_cache=False)
        scheduler.cancel(spec.job_id)
        first = scheduler.run([spec])
        assert first[0].status == "cancelled"
        second = scheduler.run([spec])
        assert second[0].status == "optimal"


class TestTimeoutClock:
    """The deadline clock starts when a job runs, not when it queues."""

    def _scheduler(self):
        return Scheduler(
            max_workers=1, timeout=0.05, timeout_grace=0.05, use_cache=False
        )

    def test_queued_never_started_job_is_not_expired(self):
        # Regression: with 2x-buffered submissions a job can sit queued
        # behind busy workers long past the deadline without ever
        # executing — it must not be reported 'timeout'.
        scheduler = self._scheduler()
        future = concurrent.futures.Future()  # pending: running() is False
        pending = _Pending(_tiny_specs(1)[0], 1)
        pending.submitted = time.perf_counter() - 10.0  # queued "forever"
        futures, by_id = {future: pending}, {}
        scheduler._note_running(futures)
        assert pending.started_at is None
        scheduler._expire_timeouts(futures, by_id)
        assert not by_id and future in futures

    def test_running_job_past_deadline_is_expired(self):
        scheduler = self._scheduler()
        stream = io.StringIO()
        scheduler.telemetry = TelemetryLogger(stream)
        future = concurrent.futures.Future()
        assert future.set_running_or_notify_cancel()
        pending = _Pending(_tiny_specs(1)[0], 1)
        futures, by_id = {future: pending}, {}
        scheduler._note_running(futures)
        assert pending.started_at is not None
        pending.started_at -= 10.0  # ran past timeout + grace long ago
        scheduler._expire_timeouts(futures, by_id)
        assert not futures
        (result,) = by_id.values()
        assert result.status == "timeout"
        assert "backstop" in result.error
        # The incident, then the result's one terminal record.
        events = _events(stream)
        assert [e["event"] for e in events] == ["job_timeout", "job_end"]
        assert events[0]["stage"] == "parent-backstop"
        assert_one_end_per_result(stream, [result])


class _StalledExecutor:
    """Executor double whose futures never complete."""

    def __init__(self):
        self.submitted = 0

    def submit(self, fn, *args, **kwargs):
        self.submitted += 1
        return concurrent.futures.Future()

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestOneEndPerResult:
    """Each result ``run`` returns reaches the journal as one ``job_end``."""

    def _scheduler(self, stream, **kwargs):
        kwargs.setdefault("use_cache", False)
        return Scheduler(telemetry=TelemetryLogger(stream), **kwargs)

    def test_serial(self):
        stream = io.StringIO()
        results = self._scheduler(stream, serial=True).run(_tiny_specs())
        assert_one_end_per_result(stream, results)
        # Serial job_start events carry no pool fields.
        starts = [e for e in _events(stream) if e["event"] == "job_start"]
        assert all(set(e) == {"event", "ts", "job_id", "label"} for e in starts)

    def test_pooled(self):
        stream = io.StringIO()
        results = self._scheduler(stream, max_workers=1).run(_tiny_specs())
        assert [r.status for r in results] == ["optimal", "optimal"]
        assert_one_end_per_result(stream, results)

    def test_degraded(self, tmp_path):
        faults.install_plan(thrash_plan(tmp_path))
        stream = io.StringIO()
        scheduler = self._scheduler(
            stream,
            max_workers=2,
            retries=5,
            max_rebuilds=1,
            poll_interval=0.05,
            backoff_base=0.02,
        )
        results = scheduler.run(_tiny_specs())
        assert scheduler.degraded
        assert_one_end_per_result(stream, results)

    def test_ctrl_c(self, monkeypatch):
        # The first poll harvests two finished jobs; Ctrl-C lands in the
        # second, while the third is in flight.
        stream = io.StringIO()
        scheduler = self._scheduler(stream, max_workers=1)
        monkeypatch.setattr(scheduler, "_new_executor", lambda: _FakeExecutor(0))
        real_wait = concurrent.futures.wait
        polls = []

        def interrupted_wait(*args, **kwargs):
            polls.append(1)
            if len(polls) > 1:
                raise KeyboardInterrupt
            return real_wait(*args, **kwargs)

        monkeypatch.setattr(
            "repro.runtime.scheduler.concurrent.futures.wait", interrupted_wait
        )
        results = scheduler.run(_tiny_specs(3))
        assert [r.status for r in results] == ["optimal", "optimal", "cancelled"]
        assert_one_end_per_result(stream, results)
        (cancelled,) = [
            e for e in _events(stream) if e["event"] == "sweep_cancelled"
        ]
        assert cancelled["completed"] == 2

    def test_ctrl_c_serial(self, monkeypatch):
        # Ctrl-C inside the second in-process job: the first keeps its
        # result, the interrupted one and the one behind it are cancelled.
        from repro.runtime import scheduler as scheduler_module

        stream = io.StringIO()
        real_run_job = scheduler_module.run_job
        calls = []

        def interrupted_run_job(*args, **kwargs):
            calls.append(1)
            if len(calls) > 1:
                raise KeyboardInterrupt
            return real_run_job(*args, **kwargs)

        monkeypatch.setattr(scheduler_module, "run_job", interrupted_run_job)
        results = self._scheduler(stream, serial=True).run(_tiny_specs(3))
        assert [r.status for r in results] == ["optimal", "cancelled", "cancelled"]
        assert_one_end_per_result(stream, results)

    def test_ctrl_c_with_nothing_finished(self, monkeypatch):
        stream = io.StringIO()
        scheduler = self._scheduler(stream, max_workers=1)
        executor = _StalledExecutor()
        monkeypatch.setattr(scheduler, "_new_executor", lambda: executor)

        def interrupted_wait(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(
            "repro.runtime.scheduler.concurrent.futures.wait", interrupted_wait
        )
        results = scheduler.run(_tiny_specs(3))
        assert executor.submitted == 2  # two in flight, one still queued
        assert [r.status for r in results] == ["cancelled"] * 3
        assert_one_end_per_result(stream, results)


class TestTimeout:
    def test_pending_job_past_deadline_reported(self):
        # One worker, two jobs: with an aggressive deadline the queued
        # job (and possibly the running one) must come back as timeout
        # rather than hanging the sweep.
        specs = [
            JobSpec(
                "rpl",
                sizes={"n_a": 2, "n_b": 2},
                engine={"scenario": s, "max_iterations": 5000, "time_limit": 3.0},
                label=f"slow {s}",
            )
            for s in ("complete", "only-decomp")
        ]
        scheduler = Scheduler(
            max_workers=1, timeout=0.2, use_cache=False, poll_interval=0.05
        )
        results = scheduler.run(specs)
        assert {r.status for r in results} <= {"timeout", "optimal", "time_limit"}
        assert any(r.status == "timeout" for r in results)


def test_default_workers_positive():
    assert default_workers() >= 1
