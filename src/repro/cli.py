"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``rpl``      — explore a reconfigurable production line instance;
* ``epn``      — explore an aircraft power network instance;
* ``wsn``      — explore a wireless sensor network instance;
* ``table2``   — run the Table II scenario comparison on one EPN template;
* ``topk``     — enumerate the K cheapest valid architectures of a case study;
* ``diagnose`` — explain why an over-constrained design space is empty;
* ``sweep``    — fan a job grid (Table II / Fig. 5) out over a process
  pool, with an optional on-disk oracle cache and JSONL telemetry;
* ``serve``    — run the exploration job server: HTTP+JSON submission
  with content-addressed dedup, priority scheduling over the same
  worker pool, per-client namespace ledgers with crash-restart
  resume, and SSE telemetry streaming (see ``docs/service.md``);
* ``submit``   — submit a job to a running server, optionally waiting
  for (or streaming) the result;
* ``obs``      — analyze a ``--trace`` artifact offline (top-k slowest
  queries, per-iteration critical path, cache effectiveness), render it
  as a self-contained HTML dashboard
  (``--html``), merge a sweep journal into a fleet view (``--sweep``),
  or diff two traces (``obs diff BASE OTHER``).

The exploration commands (and ``table2``) accept ``--trace FILE
[--trace-format {jsonl,chrome}]`` to record a hierarchical run trace
through :mod:`repro.obs`. A sweep's job lifecycle is its ``--telemetry``
journal; ``obs --sweep JOURNAL`` draws it.

Every job command (``rpl``/``epn``/``wsn``, ``table2``, ``topk``,
``diagnose``, ``submit``) builds a :class:`repro.runtime.JobSpec` from
the one table of per-case flags, :data:`CASE_FLAGS`, and runs that spec,
so a ``--json`` record always describes the job that ran.

Each exploration command prints the summary, an audit of the selected
architecture, and optionally writes it as Graphviz DOT; ``--json``
instead prints the machine-readable :class:`repro.runtime.JobResult`
record the sweep aggregator consumes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from repro.casestudies import epn, rpl, wsn
from repro.explore.audit import audit_architecture
from repro.explore.engine import ExplorationStatus
from repro.graph.dot import write_dot
from repro.reporting.tables import format_seconds, render_table

#: Each case study's size and problem flags, declared once as ``(flag,
#: JobSpec key, default)``. Keys named in
#: :data:`repro.runtime.job.CASE_SIZE_ARGS` are template sizes
#: (``JobSpec.sizes``); the others are ``build_problem`` constraints
#: (``JobSpec.problem``).
CASE_FLAGS = {
    "rpl": (
        ("--n-a", "n_a", 2),
        ("--n-b", "n_b", 0),
        ("--deadline", "deadline", rpl.DEFAULT_DEADLINE),
    ),
    "epn": (
        ("--left", "left", 1),
        ("--right", "right", 1),
        ("--apu", "apu", 0),
        ("--deadline", "deadline", epn.DEFAULT_DEADLINE),
        ("--loss-budget", "loss_budget", epn.DEFAULT_LOSS_BUDGET),
    ),
    "wsn": (
        ("--sensors", "num_sensors", 2),
        ("--relays", "num_relays", 2),
        ("--tiers", "tiers", 2),
        ("--deadline", "deadline", wsn.DEFAULT_DEADLINE),
        ("--min-reliability", "min_reliability", wsn.DEFAULT_MIN_RELIABILITY),
    ),
}

#: The ``build_problem`` load that ``--demand`` (topk/diagnose) scales,
#: per case; left unset, the builder's own default applies.
DEMAND_KEYS = {"rpl": "demand_a", "epn": "load_demand", "wsn": "sensor_rate"}


def _add_case_flags(
    parser: argparse.ArgumentParser, case: str, problem: bool = True
) -> None:
    """Declare CASE's size flags and, with ``problem``, its constraints."""
    from repro.runtime.job import CASE_SIZE_ARGS

    for flag, key, default in CASE_FLAGS[case]:
        if key in CASE_SIZE_ARGS[case]:
            parser.add_argument(flag, dest=key, type=int, default=default)
        elif problem:
            parser.add_argument(flag, dest=key, type=float, default=default)


def _spec_from_args(case: str, args, **engine) -> "JobSpec":
    """The JobSpec a command line describes.

    Takes CASE's size and problem flags, ``--demand`` when given, and
    whichever engine flags the command declares, on top of ``engine``.
    """
    from repro.runtime.job import CASE_SIZE_ARGS, JobSpec

    sizes, problem = {}, {}
    for _flag, key, _default in CASE_FLAGS[case]:
        if hasattr(args, key):
            target = sizes if key in CASE_SIZE_ARGS[case] else problem
            target[key] = getattr(args, key)
    if getattr(args, "demand", None) is not None:
        problem[DEMAND_KEYS[case]] = args.demand
    for key in ("backend", "max_iterations", "time_limit"):
        if hasattr(args, key):
            engine[key] = getattr(args, key)
    if hasattr(args, "no_isomorphism"):  # see _add_lever_flags
        engine["use_isomorphism"] = not args.no_isomorphism
        engine["use_decomposition"] = not args.no_decomposition
    return JobSpec(case, sizes=sizes, problem=problem, engine=engine)


def _add_limit_flags(parser: argparse.ArgumentParser) -> None:
    from repro.runtime.job import BACKEND

    # Specs record the one MILP route, so their job ids stay those of
    # the runs that once chose it with a --backend flag.
    parser.set_defaults(backend=BACKEND)
    parser.add_argument(
        "--max-iterations", type=int, default=2000, help="iteration cap"
    )
    parser.add_argument(
        "--time-limit", type=float, default=None, help="wall-clock cap (s)"
    )


def _add_lever_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-isomorphism",
        action="store_true",
        help="disable subgraph-isomorphism certificate generalization",
    )
    parser.add_argument(
        "--no-decomposition",
        action="store_true",
        help="disable path-by-path refinement checking",
    )


def _add_submit_flags(
    parser: argparse.ArgumentParser, suppress: bool = False
) -> None:
    """Declare submit's own flags.

    On a CASE subparser ``suppress`` leaves unset flags out of its
    namespace, so they do not overwrite values given before CASE.
    """

    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--server",
        default=default("http://127.0.0.1:8765"),
        help="base URL of the job server",
    )
    parser.add_argument("--namespace", default=default("default"))
    parser.add_argument(
        "--priority",
        type=int,
        default=default(0),
        help="higher runs first (FIFO within a priority)",
    )
    parser.add_argument(
        "--wait",
        action="store_true",
        default=default(False),
        help="wait until the job is terminal, then print its result",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        default=default(False),
        help="follow the job's telemetry over SSE until it is terminal",
    )
    parser.add_argument(
        "--poll-timeout",
        type=float,
        default=default(600.0),
        help="give up waiting after this many seconds",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        default=default(False),
        help="print the terminal JobResult record (with --wait/--stream)",
    )


def _add_trace_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="record the run's span tree and metrics to FILE "
        "(inspect with `python -m repro obs FILE`)",
    )
    parser.add_argument(
        "--trace-format",
        default="jsonl",
        choices=["jsonl", "chrome"],
        help="trace file format: jsonl (default; streamable) or chrome "
        "(loads in chrome://tracing and ui.perfetto.dev)",
    )


def _make_tracer(args):
    """Build the Tracer for --trace, or None when tracing is off."""
    path = getattr(args, "trace", None)
    if not path:
        return None
    from repro.obs import ChromeTraceSink, JsonlSink, Tracer

    if getattr(args, "trace_format", "jsonl") == "chrome":
        return Tracer([ChromeTraceSink(path)])
    return Tracer([JsonlSink(path)])


def _finish_tracer(tracer, args) -> None:
    """Flush and close the trace; note the artifact path on stderr."""
    if tracer is None:
        return
    tracer.finish()
    print(f"wrote trace {args.trace}", file=sys.stderr)


def _emit_json(spec, result, duration: float) -> int:
    """Print the machine-readable record the sweep aggregator consumes."""
    from repro.runtime.job import JobResult

    record = JobResult.from_exploration(spec, result, duration=duration)
    print(json.dumps(record.to_dict(), sort_keys=True))
    return 0 if result.status is ExplorationStatus.OPTIMAL else 1


def _print_phase_profile(profile: dict) -> None:
    totals = profile.get("totals", {})
    counts = profile.get("counts", {})
    if totals:
        print("phase breakdown:")
        width = max(len(name) for name in totals)
        for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
            print(f"  {name:<{width}s}  {seconds:8.3f}s  ({counts.get(name, 0)}x)")
    counters = profile.get("counters", {})
    if counters:
        print("event counters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            print(f"  {name:<{width}s}  {counters[name]}")


def _print_result(result, dot_path: Optional[str], explorer) -> int:
    print(f"status:     {result.status.value}")
    if result.status is not ExplorationStatus.OPTIMAL:
        _print_phase_profile(result.stats.phase_profile)
        return 1
    print(f"cost:       {result.cost:g}")
    print(f"iterations: {result.stats.num_iterations}")
    print(f"time:       {result.stats.total_time:.2f}s")
    print(f"milp size:  {result.stats.milp_variables} vars x "
          f"{result.stats.milp_constraints} constraints "
          f"(final {result.stats.final_milp_variables} x "
          f"{result.stats.final_milp_constraints})")
    _print_phase_profile(result.stats.phase_profile)
    print("selected implementations:")
    for name in sorted(result.architecture.selected_impls):
        impl = result.architecture.implementation_of(name)
        print(f"  {name:14s} -> {impl.name}")
    audit = audit_architecture(
        explorer.mapping_template, explorer.specification, result.architecture
    )
    print(audit.render())
    if dot_path:
        write_dot(result.architecture.mapping_graph(), dot_path)
        print(f"wrote {dot_path}")
    return 0


def _cmd_explore(args) -> int:
    spec = _spec_from_args(args.case, args)
    tracer = _make_tracer(args)
    started = time.perf_counter()
    try:
        explorer = spec.make_explorer(tracer=tracer)
        result = explorer.explore()
    finally:
        _finish_tracer(tracer, args)
    if args.json:
        return _emit_json(spec, result, time.perf_counter() - started)
    return _print_result(result, args.dot, explorer)


def _cmd_topk(args) -> int:
    result = _spec_from_args(args.case, args).make_explorer().explore(k=args.k)
    if not result.architectures:
        print(f"no valid architecture found ({result.status.value})")
        return 1
    for rank, architecture in enumerate(result.architectures, start=1):
        picks = ", ".join(
            f"{name}={impl.name}"
            for name, impl in sorted(architecture.selected_impls.items())
        )
        print(f"#{rank}: cost {architecture.cost:g} [{picks}]")
    return 0


def _cmd_diagnose(args) -> int:
    from repro.solver.diagnostics import diagnose_infeasible_exploration

    mapping_template, specification = _spec_from_args(
        args.case, args
    ).build_problem()
    try:
        print(diagnose_infeasible_exploration(mapping_template, specification))
    except Exception as error:  # feasible design spaces included
        print(f"diagnosis unavailable: {error}")
        return 1
    return 0


def _cmd_table2(args) -> int:
    from repro.runtime.job import JobResult

    rows = []
    records = []
    tracer = _make_tracer(args)
    try:
        for name in ("only-iso", "only-decomp", "complete"):
            spec = _spec_from_args("epn", args, scenario=name)
            started = time.perf_counter()
            result = spec.make_explorer(tracer=tracer).explore()
            records.append(
                JobResult.from_exploration(
                    spec, result, duration=time.perf_counter() - started
                ).to_dict()
            )
            rows.append(
                [
                    name,
                    result.status.value,
                    format_seconds(result.stats.total_time),
                    result.stats.num_iterations,
                    f"{result.cost:g}" if result.cost is not None else "-",
                ]
            )
    finally:
        _finish_tracer(tracer, args)
    if args.json:
        print(json.dumps(records, sort_keys=True))
        return 0
    print(
        render_table(
            ["scenario", "status", "time", "iterations", "cost"],
            rows,
            title=f"EPN ({args.left},{args.right},{args.apu}) scenarios",
        )
    )
    return 0


def _cmd_sweep(args) -> int:
    from repro.runtime.scheduler import Scheduler, default_workers
    from repro.runtime.sweep import GRIDS, run_sweep
    from repro.runtime.telemetry import NullTelemetry, TelemetryLogger

    engine_flags = {
        "backend": args.backend,
        "max_iterations": args.max_iterations,
        "time_limit": args.time_limit,
    }
    specs = GRIDS[args.grid](engine_flags)
    if args.limit is not None:
        specs = specs[: args.limit]
    # --resume replays the named journal as a run ledger; new events
    # append to that same journal by default, so the ledger stays the
    # single durable artifact across kill/resume cycles.
    telemetry_path = args.telemetry or args.resume
    telemetry = (
        TelemetryLogger(telemetry_path) if telemetry_path else NullTelemetry()
    )
    try:
        with Scheduler(
            max_workers=args.workers or default_workers(),
            timeout=args.timeout,
            retries=args.retries,
            cache_path=args.cache,
            use_cache=not args.no_cache,
            telemetry=telemetry,
            serial=args.serial,
            max_rebuilds=args.max_rebuilds,
        ) as scheduler:
            report = run_sweep(specs, scheduler=scheduler, resume=args.resume)
    finally:
        telemetry.close()
    if args.json:
        print(json.dumps(report.records, sort_keys=True))
    else:
        print(report.render(title=f"sweep {args.grid} ({len(specs)} jobs)"))
    # Engine outcomes (optimal/infeasible/iteration_limit/time_limit) are
    # legitimate results; only runtime-level failures make the sweep fail.
    failures = {"error", "crashed", "timeout", "cancelled"}
    return 1 if any(r.status in failures for r in report.results) else 0


def _cmd_serve(args) -> int:
    import os

    from repro.serve.server import JobServer

    cache_path = args.cache
    if cache_path is None and not args.no_cache:
        # A long-lived server keeps its oracle memoization beside its
        # ledgers, so cache temperature survives restarts too.
        cache_path = os.path.join(args.data_dir, "oracle.db")
    server = JobServer(
        data_dir=args.data_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue=args.max_queue,
        serial=args.serial,
        cache_path=cache_path,
        use_cache=not args.no_cache,
        timeout=args.timeout,
        retries=args.retries,
    )

    def _banner(srv: "JobServer") -> None:
        # One parseable line first: tooling (and the restart test)
        # reads the bound port off it, so it must flush before jobs run.
        print(
            f"repro serve listening on http://{srv.host}:{srv.port}",
            flush=True,
        )
        print(
            f"data dir {srv.store.data_dir} "
            f"(resumed {srv.resumed_jobs} queued job(s))",
            flush=True,
        )

    server.on_ready = _banner
    return server.run_forever()


def _submit_spec(args) -> "JobSpec":
    """Build the JobSpec for ``repro submit`` (case flags or --spec)."""
    from repro.runtime.job import JobSpec

    if args.spec:
        if args.case:
            raise SystemExit("error: give either CASE flags or --spec, not both")
        if args.spec == "-":
            data = json.load(sys.stdin)
        else:
            with open(args.spec, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        return JobSpec.from_dict(data)
    if not args.case:
        raise SystemExit("error: submit needs a CASE (rpl/epn/wsn) or --spec")
    # The one-shot commands' spec, so a submitted job gets the same
    # content-addressed id (and canonical record) as `repro CASE --json`.
    return _spec_from_args(args.case, args)


def _cmd_submit(args) -> int:
    from repro.serve.client import ServeClient, ServeError

    spec = _submit_spec(args)
    client = ServeClient(args.server)
    try:
        view = client.submit(
            spec, namespace=args.namespace, priority=args.priority
        )
        if not (args.wait or args.stream):
            print(json.dumps(view, sort_keys=True))
            return 0
        if args.stream:
            record = None
            try:
                for event in client.stream(spec.job_id):
                    if event.get("event") == "job_end":
                        record = {
                            k: v for k, v in event.items()
                            if k not in ("event", "ts")
                        }
                    if not args.json:
                        print(json.dumps(event, sort_keys=True))
            except OSError as error:
                # A dropped stream is not a failed job: re-attach and
                # wait for the terminal record.
                print(
                    f"warning: stream interrupted ({error}); waiting",
                    file=sys.stderr,
                )
                record = None
            if record is None:
                # Stream ended without a terminal record (e.g. the job
                # was already terminal before we attached) — fetch it.
                record = client.wait(spec.job_id, timeout=args.poll_timeout)
        else:
            record = client.wait(spec.job_id, timeout=args.poll_timeout)
    except (ServeError, TimeoutError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        # Byte-identical to the one-shot `repro <case> --json` line.
        print(json.dumps(record, sort_keys=True))
    else:
        print(
            f"{record['job_id']}  {record['status']}"
            + (f"  cost {record['cost']:g}" if record.get("cost") is not None
               else "")
        )
    return 0 if record.get("status") == "optimal" else 1


def _cmd_obs(args) -> int:
    paths = list(args.paths)
    # `repro obs diff BASE OTHER` is hand-dispatched off the positional
    # list so the one subcommand covers report, dashboard and diff.
    if paths and paths[0] == "diff":
        from repro.obs.diff import main as diff_main

        if len(paths) != 3:
            print("usage: repro obs diff BASE OTHER", file=sys.stderr)
            return 2
        return diff_main(
            paths[1],
            paths[2],
            as_json=args.json,
            fail_on_regression=args.fail_on_regression,
        )
    trace_path = paths[0] if paths else None
    if trace_path is None and args.sweep is None:
        print("usage: repro obs TRACE | repro obs --sweep JOURNAL", file=sys.stderr)
        return 2
    if len(paths) > 1:
        print("error: obs takes one trace (or `diff BASE OTHER`)", file=sys.stderr)
        return 2
    if args.html is not None or args.sweep is not None:
        from repro.obs.dashboard import main as dashboard_main

        return dashboard_main(
            trace_path,
            html_path=args.html,
            sweep_path=args.sweep,
            top=args.top,
        )
    from repro.obs.analyze import main as analyze_main

    return analyze_main(trace_path, top=args.top)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ContrArc: contract-based CPS architecture exploration",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for case, summary in (
        ("rpl", "explore a production line"),
        ("epn", "explore a power network"),
        ("wsn", "explore a sensor network"),
    ):
        explore_cmd = commands.add_parser(case, help=summary)
        _add_case_flags(explore_cmd, case)
        _add_lever_flags(explore_cmd)
        _add_limit_flags(explore_cmd)
        explore_cmd.add_argument(
            "--dot",
            metavar="FILE",
            help="write the selected architecture as DOT",
        )
        explore_cmd.add_argument(
            "--json",
            action="store_true",
            help="print the machine-readable result record instead of the "
            "summary",
        )
        _add_trace_flags(explore_cmd)
        explore_cmd.set_defaults(func=_cmd_explore, case=case)

    t2_cmd = commands.add_parser(
        "table2", help="compare the three certificate scenarios on one EPN"
    )
    _add_case_flags(t2_cmd, "epn", problem=False)
    _add_limit_flags(t2_cmd)
    t2_cmd.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable per-scenario records",
    )
    _add_trace_flags(t2_cmd)
    t2_cmd.set_defaults(
        func=_cmd_table2, max_iterations=5000, time_limit=300.0
    )

    sweep_cmd = commands.add_parser(
        "sweep", help="run a job grid in parallel with a memoized oracle"
    )
    sweep_cmd.add_argument(
        "--grid",
        default="table2-epn",
        choices=["table2-epn", "fig5-rpl", "wsn"],
        help="which job grid to run",
    )
    sweep_cmd.add_argument(
        "--workers", type=int, default=None, help="pool size (default: cores-1)"
    )
    sweep_cmd.add_argument(
        "--serial", action="store_true", help="run in-process, no pool"
    )
    sweep_cmd.add_argument(
        "--cache", metavar="FILE", help="shared on-disk SQLite oracle cache"
    )
    sweep_cmd.add_argument(
        "--no-cache", action="store_true", help="disable the oracle cache"
    )
    sweep_cmd.add_argument(
        "--telemetry", metavar="FILE", help="append JSONL run events here"
    )
    sweep_cmd.add_argument(
        "--resume",
        metavar="JOURNAL",
        default=None,
        help="resume from a previous run's telemetry journal: jobs with "
        "a successful job_end record are replayed, only unfinished "
        "jobs re-run (new events append to JOURNAL unless "
        "--telemetry names another file)",
    )
    sweep_cmd.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job wall-clock bound (s), enforced inside the worker "
        "(cooperative check + hard alarm); timed-out jobs return "
        "status 'timeout' and free their pool slot",
    )
    sweep_cmd.add_argument(
        "--retries", type=int, default=1, help="resubmissions after a crash"
    )
    sweep_cmd.add_argument(
        "--max-rebuilds",
        type=int,
        default=3,
        help="pool rebuilds tolerated before degrading to serial "
        "in-parent execution",
    )
    sweep_cmd.add_argument(
        "--limit", type=int, default=None, help="run only the first N jobs"
    )
    _add_limit_flags(sweep_cmd)
    sweep_cmd.add_argument(
        "--json", action="store_true", help="print the aggregated records as JSON"
    )
    sweep_cmd.set_defaults(
        func=_cmd_sweep, max_iterations=5000, time_limit=120.0
    )

    serve_cmd = commands.add_parser(
        "serve",
        help="run the exploration job server (HTTP+JSON, SSE streaming)",
        description="Expose the batch runtime as a service: "
        "content-addressed job submission with dedup, priority "
        "scheduling over the existing worker pool, per-client "
        "namespace ledgers with crash-restart resume, and SSE "
        "telemetry streaming. See docs/service.md.",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port",
        type=int,
        default=8765,
        help="TCP port (0 picks a free port, printed in the banner)",
    )
    serve_cmd.add_argument(
        "--data-dir",
        required=True,
        help="root for namespace ledgers, the server log and the "
        "default oracle cache; the server resumes unfinished "
        "submissions found here on boot",
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=None, help="pool size (default: cores-1)"
    )
    serve_cmd.add_argument(
        "--serial", action="store_true", help="run jobs in-process, no pool"
    )
    serve_cmd.add_argument(
        "--max-queue",
        type=int,
        default=1024,
        help="queued-job backlog bound; submissions beyond it get HTTP 429",
    )
    serve_cmd.add_argument(
        "--cache",
        metavar="FILE",
        help="shared on-disk SQLite oracle cache "
        "(default: DATA_DIR/oracle.db)",
    )
    serve_cmd.add_argument(
        "--no-cache", action="store_true", help="disable the oracle cache"
    )
    serve_cmd.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job wall-clock bound (s), enforced inside the worker",
    )
    serve_cmd.add_argument(
        "--retries", type=int, default=1, help="resubmissions after a crash"
    )
    serve_cmd.set_defaults(func=_cmd_serve)

    submit_cmd = commands.add_parser(
        "submit",
        help="submit a job to a running `repro serve` instance",
        description="Build a JobSpec from a case's size and problem flags "
        "and the engine flags --no-isomorphism, "
        "--no-decomposition, --max-iterations and --time-limit (or read "
        "any JobSpec from --spec) and POST it to the server. "
        "--wait/--stream block until the job is terminal; with --json "
        "the printed record is byte-identical to `repro CASE --json`.",
    )
    submit_cmd.add_argument(
        "--spec",
        metavar="FILE",
        default=None,
        help="submit this JobSpec JSON file instead of case flags "
        "('-' reads stdin)",
    )
    _add_submit_flags(submit_cmd)
    submit_cases = submit_cmd.add_subparsers(dest="case", metavar="CASE")
    for case in CASE_FLAGS:
        case_cmd = submit_cases.add_parser(case, help=f"submit one {case} job")
        _add_case_flags(case_cmd, case)
        _add_lever_flags(case_cmd)
        _add_limit_flags(case_cmd)
        _add_submit_flags(case_cmd, suppress=True)
    submit_cmd.set_defaults(func=_cmd_submit)

    obs_cmd = commands.add_parser(
        "obs",
        help="analyze a --trace file: report, HTML dashboard, sweep fleet "
        "view, trace diffing",
        description="repro obs TRACE            text report; "
        "repro obs TRACE --html OUT.html  self-contained dashboard; "
        "repro obs --sweep JOURNAL [--html OUT]  fleet view; "
        "repro obs diff BASE OTHER [--fail-on-regression PCT]  compare "
        "two traces",
    )
    obs_cmd.add_argument(
        "paths",
        nargs="*",
        metavar="TRACE | diff BASE OTHER",
        help="a trace file written with --trace, or the literal word "
        "'diff' followed by two traces",
    )
    obs_cmd.add_argument(
        "--top", type=int, default=10, help="how many slowest queries to list"
    )
    obs_cmd.add_argument(
        "--html",
        metavar="OUT",
        default=None,
        help="render a self-contained HTML dashboard (no CDN, works "
        "from file://, byte-identical across re-renders) instead of "
        "the text report",
    )
    obs_cmd.add_argument(
        "--sweep",
        metavar="JOURNAL",
        default=None,
        help="merge a sweep telemetry journal in: job swimlanes, queue "
        "depth, incidents, replayed-vs-fresh (combines with --html "
        "and/or a TRACE)",
    )
    obs_cmd.add_argument(
        "--json",
        action="store_true",
        help="(diff) machine-readable delta records instead of the table",
    )
    obs_cmd.add_argument(
        "--fail-on-regression",
        metavar="PCT",
        type=float,
        default=None,
        help="(diff) exit 1 when any time-like metric grew more than "
        "PCT percent over the base",
    )
    obs_cmd.set_defaults(func=_cmd_obs)

    topk_cmd = commands.add_parser(
        "topk", help="enumerate the K cheapest valid architectures"
    )
    diag_cmd = commands.add_parser(
        "diagnose", help="explain why a design space admits no candidate"
    )
    for sub in (topk_cmd, diag_cmd):
        sub.add_argument("case", choices=sorted(CASE_FLAGS))
        for case in CASE_FLAGS:
            _add_case_flags(sub, case, problem=False)
        sub.add_argument(
            "--demand",
            type=float,
            default=None,
            help="scale the case's load (default: the case's own)",
        )
        # Smaller default instances than the one-shot commands'.
        sub.set_defaults(n_a=1, right=0, tiers=1)
    topk_cmd.add_argument("-k", type=int, default=3)
    _add_limit_flags(topk_cmd)
    topk_cmd.set_defaults(func=_cmd_topk, max_iterations=5000)
    diag_cmd.set_defaults(func=_cmd_diagnose)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
