"""The four benchmark workloads.

Each workload is a closed loop driven from one process: the next
operation starts only after the previous one has finished. A workload
exposes

* ``setup()`` — one repetition of its set-up work (problem builds, the
  untimed warm-up explore, and for ``serve-loop`` a server boot);
* ``run_pass(rng, tracer)`` — one pass over its fixed set of operations,
  in an order drawn from ``rng``, returning one :class:`Op` per
  operation. ``tracer`` is a :class:`~layers.LayerTracer` during the
  traced pass and ``None`` otherwise;
* ``light`` / ``heavy`` — the operation kinds whose median latencies are
  reported as ``light_op_ms`` and ``heavy_op_ms``.

Every explorer runs with :class:`ContrArcExplorer` defaults (scipy
backend, one worker, incremental solving, multicut), the way a CLI user
runs it. The seed only orders operations (``sweep-cache`` keeps grid
order) and, for ``serve-loop``, draws the job deadlines and the client's
pauses; the program sees nothing but the generated inputs. Why each
workload exists is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.casestudies import epn, rpl
from repro.explore.engine import ContrArcExplorer
from repro.runtime.job import JobSpec
from repro.runtime.ledger import canonical_record
from repro.runtime.scheduler import Scheduler
from repro.runtime.sweep import run_sweep, table2_grid
from repro.runtime.telemetry import TelemetryLogger, iter_events
from repro.runtime.worker import close_process_oracles, run_job
from repro.serve.client import ServeClient

#: Optimal costs of the Table II templates (paper Table II).
EPN_GOLDEN: Dict[Tuple[int, int, int], float] = {
    (1, 0, 0): 25.0,
    (2, 0, 0): 30.0,
    (1, 1, 0): 50.0,
    (2, 1, 0): 55.0,
    (1, 1, 1): 50.0,
    (2, 1, 1): 55.0,
}
#: Optimal cost of RPL(n, n) at the default deadline, for every n used.
RPL_GOLDEN = 51.0


class Op:
    """One timed operation and what it produced."""

    __slots__ = ("kind", "label", "seconds", "outcome", "error", "extra")

    def __init__(
        self,
        kind: str,
        seconds: float,
        outcome: Any = None,
        error: Optional[str] = None,
        label: str = "",
        extra: Optional[Dict[str, float]] = None,
    ) -> None:
        #: Group used for the light/heavy latency metrics.
        self.kind = kind
        #: Identifies the same operation across passes.
        self.label = label or kind
        self.seconds = seconds
        #: Comparable summary of the answer (traced vs untraced check).
        self.outcome = outcome
        #: Why the operation counts as failed, or None.
        self.error = error
        #: Raw per-operation layer samples (serve-loop only).
        self.extra = dict(extra or {})


def answer(record: Dict[str, Any]) -> Dict[str, Any]:
    """``canonical_record`` minus verification provenance.

    The provenance tallies (``verified`` / ``cache_hit``) describe how
    warm the oracle was, like the cache counters ``canonical_record``
    already drops, so a cold and a warm run of one job legitimately
    differ there and nowhere else.
    """
    canonical = canonical_record(record)
    stats = dict(canonical["stats"])
    stats.pop("verification", None)
    stats["iterations"] = [
        {key: value for key, value in row.items() if key != "verification"}
        for row in stats.get("iterations", [])
    ]
    canonical["stats"] = stats
    return canonical


def warm_up() -> None:
    """The untimed explore every workload process starts with."""
    ContrArcExplorer(*epn.build_problem(1, 0, 0)).explore()


def explore_op(kind: str, build: Callable, golden: float) -> Op:
    """Build one problem and run default ContrArc on it."""
    started = time.perf_counter()
    try:
        result = ContrArcExplorer(*build()).explore()
    except Exception as error:  # counted as a failed operation
        return Op(kind, time.perf_counter() - started, error=f"{kind}: {error!r}")
    seconds = time.perf_counter() - started
    stats = result.stats
    outcome = (result.status.value, result.cost, stats.num_iterations, stats.total_cuts)
    error = None
    if result.status.value != "optimal":
        error = f"{kind}: status {result.status.value}"
    elif result.cost != golden:
        error = f"{kind}: cost {result.cost} != golden {golden}"
    return Op(kind, seconds, outcome, error)


class Workload:
    """What a workload does unless it says otherwise."""

    #: Set up before every pass instead of a few times up front.
    setup_each_pass = False

    def check(self) -> List[str]:
        """Correctness checks run after the timed section."""
        return []

    def close(self) -> None:
        pass


class ExploreWorkload(Workload):
    """A pass runs ``complete`` ContrArc once per instance, fresh explorer each."""

    def __init__(self, instances, light: str, heavy: str) -> None:
        #: (kind, problem builder, golden cost) per instance.
        self.instances: List[Tuple[str, Callable, float]] = instances
        self.light = light
        self.heavy = heavy

    def setup(self) -> None:
        for _kind, build, _golden in self.instances:
            build()
        warm_up()

    def run_pass(self, rng, tracer) -> List[Op]:
        order = list(self.instances)
        rng.shuffle(order)
        return [explore_op(kind, build, golden) for kind, build, golden in order]


def epn_grid() -> ExploreWorkload:
    instances = [
        (f"epn{sizes}".replace(" ", ""), lambda s=sizes: epn.build_problem(*s), cost)
        for sizes, cost in EPN_GOLDEN.items()
    ]
    return ExploreWorkload(instances, light="epn(1,0,0)", heavy="epn(2,1,1)")


def rpl_cuts() -> ExploreWorkload:
    instances = [
        (f"rpl({n},{n})", lambda n=n: rpl.build_problem(n, n), RPL_GOLDEN)
        for n in (2, 3)
    ]
    return ExploreWorkload(instances, light="rpl(2,2)", heavy="rpl(3,3)")


class SweepCache(Workload):
    """Cold then warm ``run_sweep`` against one fresh SQLite oracle file.

    The cold sweep writes the oracle (``put``), the warm sweep reads it
    (``get``). The in-process oracle registry is closed between the two,
    otherwise its memory layer would answer the warm sweep and fake a
    warm disk.
    """

    light = "warm"
    heavy = "cold"

    def __init__(self, work_dir: str) -> None:
        self.work_dir = work_dir
        self.specs: List[JobSpec] = []

    def setup(self) -> None:
        self.specs = table2_grid(
            templates=[(1, 0, 0), (2, 0, 0), (1, 1, 0)],
            scenarios=["complete", "only-decomp"],
        ) + [
            JobSpec(
                "rpl",
                sizes={"n_a": 2, "n_b": 2},
                engine={"scenario": "complete"},
                label="rpl(2,2) complete",
            )
        ]
        for spec in self.specs:
            spec.build_problem()
        warm_up()

    def golden(self, spec: JobSpec) -> float:
        if spec.case == "rpl":
            return RPL_GOLDEN
        return EPN_GOLDEN[tuple(spec.sizes[k] for k in ("left", "right", "apu"))]

    def _sweep(self, kind: str, db: str, journal: str) -> Op:
        telemetry = TelemetryLogger(journal)
        started = time.perf_counter()
        try:
            report = run_sweep(
                self.specs,
                Scheduler(serial=True, cache_path=db, telemetry=telemetry),
            )
        finally:
            telemetry.close()
            close_process_oracles()
        seconds = time.perf_counter() - started
        errors = []
        for result in report.results:
            if result.status != "optimal":
                errors.append(f"{kind} {result.spec.label}: status {result.status}")
            elif result.cost != self.golden(result.spec):
                errors.append(f"{kind} {result.spec.label}: cost {result.cost}")
        records = sorted(
            (answer(record) for record in report.records),
            key=lambda record: record["job_id"],
        )
        return Op(kind, seconds, records, "; ".join(errors) or None)

    def run_pass(self, rng, tracer) -> List[Op]:
        # Grid order, not a seeded one: jobs share the oracle, and a job
        # served another job's tied-optimal answers takes a different
        # (equally optimal) trajectory, so the order changes the work.
        pass_dir = tempfile.mkdtemp(prefix="sweep-", dir=self.work_dir)
        try:
            db = os.path.join(pass_dir, "oracle.db")
            journal = os.path.join(pass_dir, "sweep.jsonl")
            cold = self._sweep("cold", db, journal)
            warm = self._sweep("warm", db, journal)
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        if cold.outcome != warm.outcome and warm.error is None:
            warm.error = "warm records differ from cold records"
        return [cold, warm]


#: serve-loop job bases: (case, sizes, base deadline). Each base deadline
#: sits on a plateau where deadline x (1 + 0.3 U) changes the job id but
#: not the amount of work, so every seed loads the server alike.
SERVE_BASES = [
    ("epn", {"left": 1, "right": 0, "apu": 0}, 12.0),
    ("epn", {"left": 1, "right": 1, "apu": 1}, 12.0),
    ("wsn", {"num_sensors": 2, "num_relays": 2, "tiers": 1}, 9.0),
    ("wsn", {"num_sensors": 1, "num_relays": 2, "tiers": 1}, 9.0),
    ("rpl", {"n_a": 1, "n_b": 1}, 50.0),
]
SERVE_JOBS_PER_BASE = 8
#: The server relays a job's journal to its SSE stream on a 50 ms poll
#: (``JobServer.stream_poll``), so a result arrives on a poll tick. The
#: client opens each fresh job's stream after a seeded pause below one
#: poll period: completions then land at random phases of the poll, as
#: they do for jobs of varied length. Without it the eight equal jobs
#: of a base cross a tick together when the host slows slightly, and
#: their latency jumps by a whole period at once.
SERVE_STREAM_POLL = 0.05
#: Generous bounds so a wedged server fails the run instead of hanging it.
SERVE_BOOT_TIMEOUT = 60.0
SERVE_REQUEST_TIMEOUT = 60.0


def base_kind(spec: JobSpec) -> str:
    """``case(size,...)``: the operation kind of a serve-loop job."""
    return f"{spec.case}({','.join(str(v) for v in spec.sizes.values())})"


def serve_specs(rng) -> List[JobSpec]:
    """40 distinct small jobs: every base with perturbed deadlines."""
    specs = []
    for case, sizes, deadline in SERVE_BASES:
        for _ in range(SERVE_JOBS_PER_BASE):
            specs.append(
                JobSpec(
                    case,
                    sizes=sizes,
                    problem={"deadline": deadline * (1.0 + 0.3 * rng.random())},
                    engine={"scenario": "complete"},
                )
            )
    return specs


class ServeLoop(Workload):
    """One client against ``repro serve --workers 1``, a fresh server per pass.

    The client submits each job, waits on its SSE stream, then fetches
    the result; after all jobs it resubmits every one (the dedup path).
    Latency runs from submit to the terminal record in hand. Operation
    kinds are the job bases; the resubmissions are kind ``dedup``.
    """

    setup_each_pass = True
    light = "rpl(1,1)"
    heavy = "epn(1,1,1)"

    def __init__(self, root: str, work_dir: str, rng) -> None:
        self.root = root
        self.work_dir = work_dir
        self.specs = serve_specs(rng)
        self.records: Dict[str, Dict[str, Any]] = {}
        self._proc: Optional[subprocess.Popen] = None
        self._data_dir: Optional[str] = None
        self._base_url = ""

    # -- server lifecycle ------------------------------------------------------

    def setup(self) -> None:
        """Warm up, then boot the server the next pass talks to."""
        warm_up()
        self._stop()
        self._data_dir = tempfile.mkdtemp(prefix="serve-", dir=self.work_dir)
        log_path = os.path.join(self._data_dir, "server.log")
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src, env.get("PYTHONPATH")) if part
        )
        with open(log_path, "w") as log:
            self._proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--port", "0", "--workers", "1",
                    "--data-dir", os.path.join(self._data_dir, "data"),
                ],
                cwd=self.root,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + SERVE_BOOT_TIMEOUT
        prefix = "repro serve listening on "
        while True:
            with open(log_path) as log:
                banner = log.readline()
            if banner.startswith(prefix) and banner.endswith("\n"):
                self._base_url = banner[len(prefix):].strip()
                return
            if self._proc.poll() is not None or time.monotonic() > deadline:
                self._stop()
                raise RuntimeError("repro serve did not start")
            time.sleep(0.01)

    def _stop_server(self) -> None:
        """Stop the server; Ctrl-C drains it and closes its journals."""
        proc, self._proc = self._proc, None
        if proc is not None and proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def _stop(self) -> None:
        """Stop the server and remove its data dir."""
        self._stop_server()
        if self._data_dir is not None:
            shutil.rmtree(self._data_dir, ignore_errors=True)
            self._data_dir = None

    def close(self) -> None:
        self._stop()

    # -- the client loop -------------------------------------------------------

    def _request(self, client, spec: JobSpec, pause: Optional[float], tracer) -> Op:
        """One submit-stream-result round; ``pause`` is None on resubmits."""

        def span(name: str):
            return tracer.span(name) if tracer is not None else nullcontext()

        fresh = pause is not None
        kind = base_kind(spec) if fresh else "dedup"
        label = f"{'fresh' if fresh else 'dedup'}:{spec.job_id}"
        started = time.perf_counter()
        try:
            with span("serve.client.submit"):
                view = client.submit(spec)
            ack = time.perf_counter() - started
            with span("serve.client.stream"):
                if fresh:
                    time.sleep(pause)
                for _event in client.stream(
                    spec.job_id, read_timeout=SERVE_REQUEST_TIMEOUT
                ):
                    pass
            with span("serve.client.result"):
                record = client.result(spec.job_id)
        except Exception as error:  # counted as a failed operation
            return Op(kind, time.perf_counter() - started, label=label,
                      error=f"{label}: {error!r}")
        seconds = time.perf_counter() - started
        error = None
        if record["status"] != "optimal":
            error = f"{label}: status {record['status']}"
        elif view.get("created") != fresh:
            error = f"{label}: created={view.get('created')}"
        cache = record.get("cache") or {}
        extra = {
            "ack_s": ack,
            "run_s": float(record.get("duration", 0.0)),
            "cache_hits": cache.get("hits", 0),
            "cache_lookups": cache.get("hits", 0) + cache.get("misses", 0),
        }
        self.records.setdefault(spec.job_id, record)
        return Op(kind, seconds, answer(record), error, label=label, extra=extra)

    def run_pass(self, rng, tracer) -> List[Op]:
        if self._proc is None:
            raise RuntimeError("serve-loop pass without a booted server")
        client = ServeClient(self._base_url, timeout=SERVE_REQUEST_TIMEOUT)
        ops: List[Op] = []
        try:
            for fresh in (True, False):
                order = list(self.specs)
                rng.shuffle(order)
                for spec in order:
                    pause = rng.random() * SERVE_STREAM_POLL if fresh else None
                    ops.append(self._request(client, spec, pause, tracer))
            self._stop_server()
            journal = os.path.join(self._data_dir, "data", "default", "journal.jsonl")
            waits = _queue_waits(journal)
        finally:
            self._stop()
        for op in ops:
            fresh, job_id = op.label.split(":", 1)
            if fresh == "fresh" and job_id in waits:
                op.extra["queue_wait_s"] = waits[job_id]
        return ops

    def check(self) -> List[str]:
        """Served records must equal an in-process run of the same spec."""
        errors = []
        for spec in self.specs:
            served = self.records.get(spec.job_id)
            if served is None:
                continue  # its request already counted as failed
            local = run_job(spec.to_dict(), use_cache=False)
            if answer(served) != answer(local):
                errors.append(f"{spec.label}: served record differs from run_job")
        return errors


def _queue_waits(journal: str) -> Dict[str, float]:
    """Seconds from ``job_submitted`` to ``job_start`` per job id."""
    submitted: Dict[str, float] = {}
    waits: Dict[str, float] = {}
    for event in iter_events(journal):
        job_id = event.get("job_id")
        if event.get("event") == "job_submitted":
            submitted.setdefault(job_id, event["ts"])
        elif event.get("event") == "job_start" and job_id in submitted:
            waits.setdefault(job_id, event["ts"] - submitted[job_id])
    return waits


WORKLOADS = ("epn-grid", "rpl-cuts", "sweep-cache", "serve-loop")


def make_workload(name: str, root: str, work_dir: str, rng):
    if name == "epn-grid":
        return epn_grid()
    if name == "rpl-cuts":
        return rpl_cuts()
    if name == "sweep-cache":
        return SweepCache(work_dir)
    if name == "serve-loop":
        return ServeLoop(root, work_dir, rng)
    raise ValueError(f"unknown workload {name!r}; available: {sorted(WORKLOADS)}")
