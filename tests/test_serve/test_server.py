"""End-to-end job-server tests over real HTTP on an ephemeral port."""

import json
import os
import threading
import time

import pytest

from repro.runtime.job import JobResult, JobSpec
from repro.runtime.ledger import canonical_record
from repro.runtime.telemetry import TelemetryLogger, read_events
from repro.serve.client import ServeClient, ServeError

from tests.test_serve.conftest import make_server


def _tiny_spec(scenario="complete") -> JobSpec:
    return JobSpec(
        "rpl",
        sizes={"n_a": 1, "n_b": 0},
        engine={"scenario": scenario, "max_iterations": 200},
        label=f"serve {scenario}",
    )


class TestSubmitAndPoll:
    def test_health(self, client, server):
        health = client.health()
        assert health["status"] == "ok"
        assert health["data_dir"] == server.store.data_dir

    def test_poll_to_completion_matches_oneshot_record(self, client):
        # The identity guarantee: an HTTP-submitted job produces the
        # same content-addressed id and the same canonical record as
        # the one-shot runtime path.
        from repro.runtime.worker import run_job

        spec = _tiny_spec()
        view = client.submit(spec, namespace="ci")
        assert view["created"] is True
        assert view["job_id"] == spec.job_id
        record = client.wait(spec.job_id, timeout=120)
        assert record["status"] == "optimal"
        oneshot = run_job(spec.to_dict(), None, False)
        assert json.dumps(canonical_record(record), sort_keys=True) == (
            json.dumps(canonical_record(oneshot), sort_keys=True)
        )

    def test_duplicate_spec_dedups(self, client):
        spec = _tiny_spec("only-iso")
        first = client.submit(spec)
        second = client.submit(spec)
        assert first["created"] is True
        assert second["created"] is False
        assert second["job_id"] == spec.job_id
        client.wait(spec.job_id, timeout=120)
        # Exactly one terminal record in the namespace journal.
        report = client.namespace_report("default")
        assert report["jobs"] == 1

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.job("deadbeef00000000")
        assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_malformed_spec_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/jobs", {"spec": {"sizes": {}}})
        assert excinfo.value.status == 400

    def test_unknown_engine_key_is_400_and_journals_nothing(
        self, client, server
    ):
        spec = _tiny_spec().to_dict()
        spec["engine"]["wrokers"] = 2
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/jobs", {"spec": spec, "namespace": "ci"})
        assert excinfo.value.status == 400
        assert "wrokers" in str(excinfo.value)
        assert server.queue.depth() == 0
        # The spec was refused before its namespace was even opened.
        assert not os.path.exists(os.path.join(server.store.data_dir, "ci"))

    def test_retired_backend_is_400_and_leaves_the_journal(
        self, idle_client, idle_server
    ):
        idle_client.submit(_tiny_spec(), namespace="ci")
        journal = os.path.join(idle_server.store.data_dir, "ci", "journal.jsonl")
        with open(journal, "rb") as stream:
            before = stream.read()
        spec = _tiny_spec().to_dict()
        spec["engine"]["backend"] = "native"
        with pytest.raises(ServeError) as excinfo:
            idle_client._request(
                "POST", "/jobs", {"spec": spec, "namespace": "ci"}
            )
        assert excinfo.value.status == 400
        assert "'backend'" in str(excinfo.value)
        assert idle_server.queue.depth() == 1
        with open(journal, "rb") as stream:
            assert stream.read() == before

    def test_invalid_namespace_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request(
                "POST",
                "/jobs",
                {"spec": _tiny_spec().to_dict(), "namespace": "../escape"},
            )
        assert excinfo.value.status == 400


class TestStream:
    def test_sse_events_arrive_in_lifecycle_order(self, client):
        spec = _tiny_spec()
        client.submit(spec, namespace="stream")
        events = [record["event"] for record in client.stream(spec.job_id)]
        assert events == ["job_submitted", "job_start", "job_end"]

    def test_stream_of_finished_job_replays_journal(self, client):
        spec = _tiny_spec()
        client.submit(spec, namespace="stream")
        client.wait(spec.job_id, timeout=120)
        events = [record["event"] for record in client.stream(spec.job_id)]
        assert events == ["job_submitted", "job_start", "job_end"]

    def test_stream_unknown_job_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            list(client.stream("deadbeef00000000"))
        assert excinfo.value.status == 404

    def test_quiet_stream_sends_keepalive_comments(self, tmp_path):
        # A queued-forever job emits no journal records; the stream
        # must still carry bytes (SSE comments) so client read
        # timeouts never fire between job_start and job_end.
        import urllib.request

        server = make_server(tmp_path, dispatch=False, stream_keepalive=0.05)
        server.start_background()
        try:
            spec = _tiny_spec()
            ServeClient(f"http://127.0.0.1:{server.port}").submit(
                spec, namespace="quiet"
            )
            request = urllib.request.Request(
                f"http://127.0.0.1:{server.port}/jobs/{spec.job_id}/stream",
                headers={"Accept": "text/event-stream"},
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                seen = []
                for _ in range(40):
                    line = response.readline().decode("utf-8").rstrip("\n")
                    seen.append(line)
                    if line.startswith(":"):
                        break
                assert any(l.startswith(": keepalive") for l in seen)
        finally:
            server.stop_background()


def _emit_job_end(server, spec, status="optimal"):
    """Journal a job_end through the scheduler's telemetry sink."""
    record = JobResult(spec.job_id, spec, status).to_dict()
    server.telemetry.emit("job_end", **record)


def _wait_for(condition, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


class TestStreamPush:
    """Journal writes wake open streams; the keepalive is the only timer."""

    def test_job_end_from_another_thread_ends_stream_promptly(self, tmp_path):
        # With a 30 s keepalive, a stream that only re-checked on its
        # timer would still be waiting long after the 2 s bound.
        server = make_server(tmp_path, dispatch=False, stream_keepalive=30)
        server.start_background()
        try:
            client = ServeClient(f"http://127.0.0.1:{server.port}")
            spec = _tiny_spec()
            client.submit(spec, namespace="push")
            stream = client.stream(spec.job_id, read_timeout=10)
            first = next(stream)
            emitted = []

            def finish():
                emitted.append(time.monotonic())
                _emit_job_end(server, spec)

            emitter = threading.Thread(target=finish)
            emitter.start()
            rest = list(stream)
            ended = time.monotonic()
            emitter.join(5)
            assert not emitter.is_alive()
            assert first["event"] == "job_submitted"
            assert [r["event"] for r in rest] == ["job_end"]
            assert ended - emitted[0] < 2.0
        finally:
            server.stop_background()

    def test_cancel_of_queued_job_ends_its_stream(self, idle_client):
        spec = _tiny_spec()
        idle_client.submit(spec, namespace="ci")
        stream = idle_client.stream(spec.job_id, read_timeout=10)
        events = [next(stream)]
        assert idle_client.cancel(spec.job_id)["action"] == "cancelled"
        events.extend(stream)
        # stream() returns at stream_end, so job_end came before it.
        assert [r["event"] for r in events] == ["job_submitted", "job_end"]
        assert events[-1]["status"] == "cancelled"

    def test_concurrent_streams_all_end_and_unregister(
        self, idle_client, idle_server
    ):
        specs = [_tiny_spec("complete"), _tiny_spec("only-iso")]
        for spec in specs:
            idle_client.submit(spec, namespace="fan")
        results = {}

        def follow(index, job_id):
            results[index] = [
                r["event"] for r in idle_client.stream(job_id, read_timeout=10)
            ]

        threads = [
            threading.Thread(target=follow, args=(i, specs[i % 2].job_id))
            for i in range(20)
        ]
        for thread in threads:
            thread.start()
        wakeups = idle_server._stream_wakeups
        assert _wait_for(
            lambda: [len(wakeups.get(s.job_id, ())) for s in specs] == [10, 10]
        )
        for spec in specs:
            _emit_job_end(idle_server, spec)
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {i: ["job_submitted", "job_end"] for i in range(20)}
        assert _wait_for(lambda: not wakeups)

    def test_wait_times_out_on_a_job_that_never_starts(self, tmp_path):
        server = make_server(tmp_path, dispatch=False, stream_keepalive=0.05)
        server.start_background()
        try:
            client = ServeClient(f"http://127.0.0.1:{server.port}")
            spec = _tiny_spec()
            client.submit(spec)
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                client.wait(spec.job_id, timeout=0.5)
            assert time.monotonic() - started < 2.0
        finally:
            server.stop_background()


class TestCancel:
    def test_cancel_queued_job_is_terminal_with_one_record(
        self, idle_client, idle_server
    ):
        # Dispatcher off: the submission stays queued, so cancel is the
        # queue-side path — the server journals the only job_end.
        spec = _tiny_spec()
        idle_client.submit(spec, namespace="ci")
        view = idle_client.cancel(spec.job_id)
        assert view["action"] == "cancelled"
        assert view["state"] == "cancelled"
        record = idle_client.result(spec.job_id)
        assert record["status"] == "cancelled"
        journal = idle_server.store.namespace("ci").journal_path
        ends = [e for e in read_events(journal) if e["event"] == "job_end"]
        assert len(ends) == 1 and ends[0]["status"] == "cancelled"

    def test_result_before_terminal_is_409(self, idle_client):
        spec = _tiny_spec()
        idle_client.submit(spec)
        with pytest.raises(ServeError) as excinfo:
            idle_client.result(spec.job_id)
        assert excinfo.value.status == 409

    def test_cancelled_job_is_resubmittable(self, idle_client):
        spec = _tiny_spec()
        idle_client.submit(spec)
        idle_client.cancel(spec.job_id)
        view = idle_client.submit(spec)
        assert view["created"] is True
        assert view["state"] == "queued"


class TestNamespaces:
    def test_report_aggregates_ledger_view(self, client):
        specs = [_tiny_spec("complete"), _tiny_spec("only-iso")]
        for spec in specs:
            client.submit(spec, namespace="report")
        for spec in specs:
            client.wait(spec.job_id, timeout=120)
        report = client.namespace_report("report")
        assert report["jobs"] == 2
        assert report["statuses"] == {"optimal": 2}
        assert report["total_job_time"] > 0

    def test_unknown_namespace_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.namespace_report("nope")
        assert excinfo.value.status == 404

    def test_job_listing_filters_by_namespace(self, idle_client):
        idle_client.submit(_tiny_spec("complete"), namespace="alpha")
        idle_client.submit(_tiny_spec("only-iso"), namespace="beta")
        assert len(idle_client.jobs()) == 2
        beta = idle_client.jobs(namespace="beta")
        assert [v["namespace"] for v in beta] == ["beta"]


def _seed_journal(data_dir, namespace, events):
    """Pre-write a namespace journal as a dead server left it."""
    ns_dir = os.path.join(str(data_dir), namespace)
    os.makedirs(ns_dir)
    logger = TelemetryLogger(os.path.join(ns_dir, "journal.jsonl"))
    for name, fields in events:
        logger.emit(name, **fields)
    logger.close()


class TestBootResume:
    def test_acknowledged_resubmission_is_reenqueued(self, tmp_path):
        # Journal: job crashed, client re-submitted (202 acknowledged),
        # server SIGKILLed before the retry ran. Boot must queue the
        # re-submission at its new priority, not resurrect the stale
        # crashed record as the job's answer.
        spec = _tiny_spec()
        data_dir = tmp_path / "data"
        _seed_journal(
            data_dir,
            "ci",
            [
                ("job_submitted",
                 {"job_id": spec.job_id, "spec": spec.to_dict(),
                  "priority": 0}),
                ("job_end",
                 {"job_id": spec.job_id, "spec": spec.to_dict(),
                  "status": "crashed"}),
                ("job_submitted",
                 {"job_id": spec.job_id, "spec": spec.to_dict(),
                  "priority": 2}),
            ],
        )
        server = make_server(tmp_path, dispatch=False)
        server.start_background()
        try:
            assert server.resumed_jobs == 1
            entry = server.queue.get(spec.job_id)
            assert entry.state == "queued"
            assert entry.priority == 2
            assert not entry.replayed
        finally:
            server.stop_background()

    def test_legacy_workers_submission_is_skipped_at_boot(self, tmp_path):
        # A ledger written before the in-run pool was removed may hold a
        # spec with a ``workers`` engine key. Boot skips it and still
        # resumes everything it understands.
        spec = _tiny_spec()
        legacy = spec.to_dict()
        legacy["engine"]["workers"] = 2
        _seed_journal(
            tmp_path / "data",
            "ci",
            [
                ("job_submitted",
                 {"job_id": "legacy0000000000", "spec": legacy,
                  "priority": 0}),
                ("job_submitted",
                 {"job_id": spec.job_id, "spec": spec.to_dict(),
                  "priority": 0}),
            ],
        )
        server = make_server(tmp_path, dispatch=False)
        server.start_background()
        try:
            assert server.resumed_jobs == 1
            assert server.queue.get(spec.job_id).state == "queued"
            assert server.queue.get("legacy0000000000") is None
        finally:
            server.stop_background()

    def test_resume_backlog_beyond_max_queue_does_not_abort_boot(
        self, tmp_path
    ):
        specs = [
            JobSpec("rpl", sizes={"n_a": 1, "n_b": 0},
                    engine={"max_iterations": 100 + i}, label=f"overflow {i}")
            for i in range(3)
        ]
        data_dir = tmp_path / "data"
        _seed_journal(
            data_dir,
            "ci",
            [
                ("job_submitted",
                 {"job_id": spec.job_id, "spec": spec.to_dict(),
                  "priority": 0})
                for spec in specs
            ],
        )
        server = make_server(tmp_path, dispatch=False, max_queue=1)
        server.start_background()  # must not raise QueueFull
        try:
            assert server.resumed_jobs == 1
            overflow = [
                e for e in read_events(
                    os.path.join(str(data_dir), "server.jsonl")
                )
                if e["event"] == "resume_overflow"
            ]
            assert len(overflow) == 2
            assert {e["namespace"] for e in overflow} == {"ci"}
        finally:
            server.stop_background()


class TestPriority:
    def test_higher_priority_claims_first(self, idle_server):
        # Queue inspection via the server's own queue: the dispatcher
        # is off, so the claim order is exactly the priority order.
        low = _tiny_spec("complete")
        high = _tiny_spec("only-iso")
        idle_server.submit(low, priority=0)
        idle_server.submit(high, priority=10)
        claimed = idle_server.queue.claim_batch(2)
        assert [e.job_id for e in claimed] == [high.job_id, low.job_id]
