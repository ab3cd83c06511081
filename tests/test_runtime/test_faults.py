"""Fault-injection harness tests and scheduler chaos tests.

These drive the crash-safety layer end to end: injected worker crashes
must be retried (with backoff) without losing finished work, stalls
must be cut off by the worker-side deadline, and a pool that keeps
dying must degrade to serial in-parent execution instead of thrashing.
"""

import io
import time

import pytest

from repro.runtime import faults
from repro.runtime.job import JobSpec
from repro.runtime.scheduler import Scheduler, backoff_delay
from repro.runtime.telemetry import TelemetryLogger


def _spec(scenario="complete", label=None, **engine):
    merged = {"scenario": scenario, "max_iterations": 200}
    merged.update(engine)
    return JobSpec(
        "rpl",
        sizes={"n_a": 1, "n_b": 0},
        engine=merged,
        label=label or f"chaos {scenario}",
    )


def _events(stream):
    import json

    return [json.loads(line) for line in stream.getvalue().splitlines() if line]


def thrash_plan(directory):
    """Every pooled execution dies; in-parent execution is spared."""
    return [{"seam": "job", "kind": "crash", "dir": str(directory)}]


class TestRegistry:
    def test_inert_without_plan(self):
        faults.maybe_inject("job", "anything")  # must be a no-op

    def test_exception_rule_fires_on_match(self, tmp_path):
        faults.install_plan(
            [{"seam": "job", "kind": "exception", "match": "boom",
              "worker_only": False}]
        )
        with pytest.raises(faults.FaultInjected):
            faults.maybe_inject("job", "job boom label")
        faults.maybe_inject("job", "other label")  # no match, no fault

    def test_after_and_times_window(self, tmp_path):
        faults.install_plan(
            [{"seam": "job", "kind": "exception", "after": 2, "times": 1,
              "dir": str(tmp_path), "worker_only": False}]
        )
        faults.maybe_inject("job", "t")  # hit 1: skipped
        faults.maybe_inject("job", "t")  # hit 2: skipped
        with pytest.raises(faults.FaultInjected):
            faults.maybe_inject("job", "t")  # hit 3: fires
        faults.maybe_inject("job", "t")  # hit 4: window exhausted

    def test_counter_is_shared_via_file(self, tmp_path):
        rule = {"seam": "job", "kind": "exception", "after": 0, "times": 5,
                "dir": str(tmp_path)}
        path = faults._counter_path(rule)
        assert faults._bump(path) == 1
        assert faults._bump(path) == 2  # ordinal grows monotonically

    def test_worker_only_rules_spare_the_parent(self):
        faults.install_plan([{"seam": "job", "kind": "exception"}])
        faults.maybe_inject("job", "anything")  # parent: not armed


class TestBackoff:
    def test_deterministic_and_exponential(self):
        first = backoff_delay("job-a", 1)
        again = backoff_delay("job-a", 1)
        assert first == again  # same job, same attempt: same delay
        assert backoff_delay("job-b", 1) != first  # jitter keyed by id
        # Exponential envelope: raw doubles per attempt, jitter in
        # [0.5, 1.0]x, cap respected.
        for attempt in range(1, 8):
            delay = backoff_delay("job-a", attempt, base=0.25, cap=5.0)
            raw = min(5.0, 0.25 * 2 ** (attempt - 1))
            assert 0.5 * raw <= delay <= raw
        assert backoff_delay("job-a", 50, cap=5.0) <= 5.0


class TestCrashRetry:
    def test_injected_crash_is_retried_to_success(self, tmp_path):
        # First execution of the matching job kills its worker process;
        # the scheduler must rebuild the pool, back off, and rerun it.
        faults.install_plan(
            [{"seam": "job", "kind": "crash", "match": "victim",
              "times": 1, "dir": str(tmp_path)}]
        )
        specs = [_spec(label="chaos victim"), _spec("only-iso")]
        stream = io.StringIO()
        with Scheduler(
            max_workers=2,
            retries=2,
            use_cache=False,
            telemetry=TelemetryLogger(stream),
            poll_interval=0.05,
            backoff_base=0.05,
        ) as scheduler:
            results = scheduler.run(specs)
        assert [r.status for r in results] == ["optimal", "optimal"]
        assert results[0].attempts == 2
        assert scheduler.rebuilds >= 1
        events = _events(stream)
        # A pool break can mark the batch-mate's future broken too, so
        # filter to the injected victim's retry specifically.
        retries = [
            e for e in events
            if e["event"] == "job_retry" and e["job_id"] == specs[0].job_id
        ]
        assert retries
        assert retries[0]["backoff"] == backoff_delay(
            specs[0].job_id, 1, base=0.05, cap=scheduler.backoff_cap
        )
        # Every job ends exactly once — finished work survived the
        # pool rebuild (satellite: no re-run of completed futures).
        ends = [e["job_id"] for e in events if e["event"] == "job_end"]
        assert sorted(ends) == sorted(s.job_id for s in specs)

    def test_exception_storm_exhausts_retries(self, tmp_path):
        faults.install_plan(
            [{"seam": "job", "kind": "crash", "match": "doomed",
              "dir": str(tmp_path)}]
        )
        specs = [_spec(label="chaos doomed")]
        with Scheduler(
            max_workers=1,
            retries=1,
            max_rebuilds=10,
            use_cache=False,
            poll_interval=0.05,
            backoff_base=0.05,
        ) as scheduler:
            results = scheduler.run(specs)
        assert results[0].status == "crashed"
        assert results[0].attempts == 2


class TestDegradation:
    def test_thrashing_pool_degrades_to_serial(self, tmp_path):
        # Every pooled execution of these jobs dies -> after
        # max_rebuilds the scheduler must fall back to in-parent
        # execution, where the (worker_only) fault is not armed, and
        # still finish the sweep.
        faults.install_plan(thrash_plan(tmp_path))
        specs = [_spec(), _spec("only-iso")]
        stream = io.StringIO()
        with Scheduler(
            max_workers=2,
            retries=5,
            max_rebuilds=1,
            use_cache=False,
            telemetry=TelemetryLogger(stream),
            poll_interval=0.05,
            backoff_base=0.02,
        ) as scheduler:
            results = scheduler.run(specs)
        assert scheduler.degraded
        assert [r.status for r in results] == ["optimal", "optimal"]
        events = _events(stream)
        degraded = [e for e in events if e["event"] == "scheduler_degraded"]
        assert len(degraded) == 1
        assert degraded[0]["rebuilds"] == 2
        inline = [
            e for e in events
            if e["event"] == "job_start" and e.get("inline")
        ]
        assert len(inline) == len(specs)


class TestWorkerSideDeadline:
    def test_stalled_job_times_out_and_slot_is_reused(self, tmp_path):
        # Acceptance: a job exceeding --timeout terminates *worker-side*
        # (hard alarm cuts the stall), returns status 'timeout', and its
        # pool slot runs the next job — no abandoned future, no
        # parent-side backstop event.
        # The budget must let the second job finish on a slow host:
        # size it from a serial run of that job, never below 0.5s.
        probe_started = time.perf_counter()
        probe = Scheduler(serial=True, use_cache=False).run([_spec("only-iso")])
        assert probe[0].status == "optimal"
        budget = max(0.5, 3.0 * (time.perf_counter() - probe_started))
        faults.install_plan(
            [{"seam": "job", "kind": "stall", "match": "wedged",
              "seconds": 60, "dir": str(tmp_path)}]
        )
        specs = [_spec(label="chaos wedged"), _spec("only-iso")]
        stream = io.StringIO()
        with Scheduler(
            max_workers=1,  # one slot: the second job needs the first freed
            timeout=budget,
            timeout_grace=60.0,  # parent backstop far away: worker must act
            retries=0,
            use_cache=False,
            telemetry=TelemetryLogger(stream),
            poll_interval=0.05,
        ) as scheduler:
            started = time.perf_counter()
            results = scheduler.run(specs)
            elapsed = time.perf_counter() - started
        assert results[0].status == "timeout"
        assert "hard deadline" in results[0].error
        assert results[1].status == "optimal"
        # Cut off by the alarm (budget + 1s grace), not by the 60s stall
        # — generous slack for pool startup on a loaded machine.
        assert elapsed < 30.0
        events = _events(stream)
        assert not [e for e in events if e["event"] == "job_timeout"]

    def test_cooperative_deadline_in_serial_run(self):
        # No fault plan: a genuinely long exploration with a tight sweep
        # deadline stops at the between-iteration check and is relabeled
        # 'timeout' (the sweep bound, not the job's own time_limit, cut
        # it short).
        spec = JobSpec(
            "rpl",
            sizes={"n_a": 2, "n_b": 2},
            engine={"scenario": "complete", "max_iterations": 5000},
            label="slow",
        )
        results = Scheduler(serial=True, timeout=0.2, use_cache=False).run(
            [spec]
        )
        assert results[0].status == "timeout"
        assert "deadline" in results[0].error

    def test_own_time_limit_still_reports_time_limit(self):
        # The job's own engine budget binding first stays a legitimate
        # engine outcome — the sweep deadline must not relabel it.
        spec = JobSpec(
            "rpl",
            sizes={"n_a": 2, "n_b": 2},
            engine={
                "scenario": "complete",
                "max_iterations": 5000,
                "time_limit": 0.2,
            },
            label="self-capped",
        )
        results = Scheduler(serial=True, timeout=30.0, use_cache=False).run(
            [spec]
        )
        assert results[0].status == "time_limit"
