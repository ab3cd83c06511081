"""Crash-restart resume: kill -9 the server, restart, jobs complete.

Runs the real ``python -m repro serve`` process. Generation 1 starts
with a fault plan stalling every job, so the submitted work is
guaranteed to be in flight (never finished) when the process is killed
with SIGKILL. Generation 2 runs without faults: it must resume the
submission from the namespace ledger, run it to completion, and leave
exactly one terminal ``job_end`` record per job.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.runtime.job import JobSpec
from repro.runtime.telemetry import read_events
from repro.serve.client import ServeClient

_BANNER = re.compile(r"listening on http://[^:]+:(\d+)")
_RESUMED = re.compile(r"resumed (\d+) queued job")


def _spawn(data_dir, stall=False):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    if stall:
        env["REPRO_FAULTS"] = json.dumps(
            [{"seam": "job", "kind": "stall", "seconds": 3600,
              "worker_only": False}]
        )
    else:
        env.pop("REPRO_FAULTS", None)
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--data-dir", data_dir,
            "--port", "0", "--serial", "--no-cache",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    port = resumed = None
    deadline = time.monotonic() + 30
    lines = []
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            time.sleep(0.05)
            continue
        lines.append(line)
        match = _BANNER.search(line)
        if match:
            port = int(match.group(1))
        match = _RESUMED.search(line)
        if match:
            resumed = int(match.group(1))
        if port is not None and resumed is not None:
            return process, port, resumed
    process.kill()
    _reap(process)
    pytest.fail(f"server never became ready; output: {lines!r}")


def _reap(process):
    """Wait for a stopped server and close its stdout pipe."""
    try:
        process.wait(timeout=10)
    finally:
        process.stdout.close()


def _tiny_spec(scenario="complete") -> JobSpec:
    return JobSpec(
        "rpl",
        sizes={"n_a": 1, "n_b": 0},
        engine={"scenario": scenario, "max_iterations": 200},
        label=f"restart {scenario}",
    )


def test_sigkill_then_restart_resumes_namespace_ledger(tmp_path):
    data_dir = str(tmp_path / "data")
    spec = _tiny_spec()
    process, port, resumed = _spawn(data_dir, stall=True)
    try:
        client = ServeClient(f"http://127.0.0.1:{port}")
        assert resumed == 0
        view = client.submit(spec, namespace="ci")
        assert view["created"] is True
        # The ack is durable-before-response; the job itself is stalled
        # inside the worker seam and can never finish in this process.
        time.sleep(0.3)
        assert client.job(spec.job_id)["state"] in (
            "queued", "dispatched", "running",
        )
    finally:
        os.kill(process.pid, signal.SIGKILL)
        _reap(process)

    journal = os.path.join(data_dir, "ci", "journal.jsonl")
    events = [e["event"] for e in read_events(journal)]
    assert events[0] == "job_submitted"  # the ack was durable
    assert "job_end" not in events  # ...but the job never finished

    process, port, resumed = _spawn(data_dir, stall=False)
    try:
        assert resumed == 1  # the orphaned submission re-enqueued
        client = ServeClient(f"http://127.0.0.1:{port}")
        record = client.wait(spec.job_id, timeout=120)
        assert record["status"] == "optimal"
        # Restarting again replays the terminal record instead of
        # re-running, and the journal stays at exactly one job_end.
    finally:
        process.terminate()
        _reap(process)

    ends = [e for e in read_events(journal) if e["event"] == "job_end"]
    assert len(ends) == 1
    assert ends[0]["job_id"] == spec.job_id
    assert ends[0]["status"] == "optimal"

    process, port, resumed = _spawn(data_dir, stall=False)
    try:
        assert resumed == 0
        client = ServeClient(f"http://127.0.0.1:{port}")
        view = client.job(spec.job_id)
        assert view["state"] == "done"
        assert view["replayed"] is True
        assert client.result(spec.job_id)["status"] == "optimal"
        # Dedup holds across the restart: resubmitting the finished
        # spec returns the replayed entry instead of re-running it.
        assert client.submit(spec, namespace="ci")["created"] is False
    finally:
        process.terminate()
        _reap(process)

    assert len(
        [e for e in read_events(journal) if e["event"] == "job_end"]
    ) == 1
