"""One benchmark run of one workload.

    python3 benchmarks/harness/run.py --workload NAME --seed N \
        --seconds S --trace 0|1 [--out DIR]

Run from the repository root; the program is imported from ``src/``.
The run sets the workload up (median of several set-ups), then runs
whole passes until ``--seconds`` have gone by. ``--trace 0`` times the
passes and reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics. Every
answer is checked. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``--out`` also writes a result file with provenance and raw samples.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from this line

import argparse
import importlib.util
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext

HARNESS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HARNESS))
SRC = os.path.join(ROOT, "src")

#: Set-up repetitions whose median is ``setup_s`` (serve-loop instead
#: sets up once per pass, since every pass needs a fresh server).
SETUP_REPEATS = 3
#: Fewest timed passes in a ``--trace 0`` run, however short --seconds.
MIN_PASSES = 2
#: A run that is still going after this long stops with an error.
RUN_LIMIT_S = 170

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "light_op_ms": "ms",
    "heavy_op_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: Wrapped spans reported as self time, metric name = span name + "_s".
SELF_TIME_SPANS = [
    "explore.engine.loop",
    "explore.refinement_check.plan",
    "explore.encoding.build",
    "explore.certificates.generate",
    "graph.isomorphism.enumerate",
    "explore.incremental.fingerprint",
    "contracts.substitute",
    "contracts.compose",
    "contracts.refinement.check",
    "runtime.oracle.lookup",
    "runtime.keys.formula_key",
    "runtime.keys.model_key",
    "runtime.store.get",
    "runtime.store.put",
    "solver.feasibility.sat_solve",
    "solver.encoder.enforce",
    "solver.session.solve",
    "runtime.scheduler.overhead",
    "runtime.worker.run_job",
    "runtime.telemetry.emit",
    "serve.client.submit",
    "serve.client.stream",
    "serve.client.result",
]

PER_LAYER = dict(
    {f"{span}_s": "s" for span in SELF_TIME_SPANS},
    **{
        "explore.engine.iterations": "count",
        "solver.session.solves": "count",
        "solver.session.rows_final": "count",
        "solver.encoder.calls": "count",
        "solver.feasibility.sat_solves": "count",
        "contracts.refinement.checks": "count",
        "contracts.refinement.fail_frac": "ratio",
        "explore.incremental.carried_frac": "ratio",
        "runtime.oracle.hit_frac": "ratio",
        "runtime.keys.calls": "count",
        "runtime.store.rows_read": "count",
        "runtime.store.rows_written": "count",
        "explore.certificates.cuts_emitted": "count",
        "explore.certificates.cuts_kept_frac": "ratio",
        "graph.isomorphism.embeddings": "count",
        "serve.ack_p50_ms": "ms",
        "serve.ack_p90_ms": "ms",
        "serve.result_p50_ms": "ms",
        "serve.result_p90_ms": "ms",
        "serve.dedup_ack_p50_ms": "ms",
        "serve.dedup_p50_ms": "ms",
        "serve.queue_wait_p50_ms": "ms",
        "serve.run_p50_ms": "ms",
        "serve.overhead_p50_ms": "ms",
        "serve.worker_cache_hit_frac": "ratio",
        "unattributed_s": "s",
        "bench.unattributed_frac": "ratio",
        "bench.traced_pass_s": "s",
        "bench.trace_overhead_frac": "ratio",
    },
)


def summary(values):
    """Sample count, median and quartiles of a list of numbers."""
    values = list(values)
    if not values:
        return {"n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "samples": values,
    }


def percentile(values, fraction):
    """Inclusive-method percentile (``fraction`` in (0, 1))."""
    values = list(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


class _Deadline(Exception):
    pass


def _raise_deadline(_signum, _frame):
    raise _Deadline(f"run exceeded {RUN_LIMIT_S}s")


def measure(workload, rng, seconds, trace):
    """Set up, then run passes for ``seconds``; returns (setup samples, passes)."""
    from benchmarks.harness.layers import LayerTracer, patched

    setup_samples = []

    def set_up():
        started = time.perf_counter()
        workload.setup()
        setup_samples.append(time.perf_counter() - started)

    if not workload.setup_each_pass:
        for _ in range(SETUP_REPEATS):
            set_up()
    passes = []
    started = time.perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        if workload.setup_each_pass:
            set_up()
        tracer = LayerTracer() if traced else None
        with patched(tracer) if traced else nullcontext():
            ops = workload.run_pass(rng, tracer)
        passes.append({"traced": traced, "ops": ops, "tracer": tracer})
        enough = len(passes) >= (2 if trace else MIN_PASSES)
        if enough and time.perf_counter() - started >= seconds:
            return setup_samples, passes


def check_outcomes(passes):
    """Every repeat of an operation, traced or not, must give the answer
    of its first untraced run."""
    reference = {}
    for record in passes:
        if record["traced"]:
            continue
        for op in record["ops"]:
            if op.error is None:
                reference.setdefault(op.label, op.outcome)
    for record in passes:
        for op in record["ops"]:
            if op.error is None and op.label in reference:
                if op.outcome != reference[op.label]:
                    which = "traced" if record["traced"] else "repeated"
                    op.error = f"{op.label}: {which} outcome differs"


def op_seconds(record):
    return sum(op.seconds for op in record["ops"])


def end_to_end_metrics(workload, import_s, setup_samples, passes, peak_rss_mb):
    by_label, by_kind = {}, {}
    for record in passes:
        for op in record["ops"]:
            by_label.setdefault(op.label, []).append(op.seconds)
            by_kind.setdefault(op.kind, []).append(op.seconds)
    return {
        "setup_s": import_s + statistics.median(setup_samples),
        "pass_s": sum(statistics.median(v) for v in by_label.values()),
        "light_op_ms": 1000.0 * statistics.median(by_kind[workload.light]),
        "heavy_op_ms": 1000.0 * statistics.median(by_kind[workload.heavy]),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer_metrics(passes):
    traced = [record for record in passes if record["traced"]]
    untraced = [record for record in passes if not record["traced"]]
    runs = len(traced)
    self_time, calls, counters = {}, {}, {}
    for record in traced:
        tracer = record["tracer"]
        for table, source in (
            (self_time, tracer.self_time),
            (calls, tracer.calls),
            (counters, tracer.counters),
        ):
            for key, value in source.items():
                table[key] = table.get(key, 0) + value / runs

    metrics = {f"{span}_s": self_time.get(span, 0.0) for span in SELF_TIME_SPANS}
    metrics.update(
        {
            "explore.engine.iterations": counters.get("iterations", 0),
            "solver.session.solves": calls.get("solver.session.solve", 0),
            "solver.session.rows_final": counters.get("rows_final", 0),
            "solver.encoder.calls": calls.get("solver.encoder.enforce", 0),
            "solver.feasibility.sat_solves": calls.get(
                "solver.feasibility.sat_solve", 0
            ),
            "contracts.refinement.checks": calls.get(
                "contracts.refinement.check", 0
            ),
            "contracts.refinement.fail_frac": ratio(
                counters.get("refinement_fails", 0),
                calls.get("contracts.refinement.check", 0),
            ),
            "explore.incremental.carried_frac": ratio(
                counters.get("verify_carried", 0), counters.get("verify_checks", 0)
            ),
            "runtime.oracle.hit_frac": ratio(
                counters.get("oracle_hits", 0),
                counters.get("oracle_hits", 0) + counters.get("oracle_misses", 0),
            ),
            "runtime.keys.calls": calls.get("runtime.keys.formula_key", 0)
            + calls.get("runtime.keys.model_key", 0),
            "runtime.store.rows_read": counters.get("rows_read", 0),
            "runtime.store.rows_written": counters.get("rows_written", 0),
            "explore.certificates.cuts_emitted": counters.get("cuts_emitted", 0),
            "explore.certificates.cuts_kept_frac": ratio(
                counters.get("cuts_kept", 0), counters.get("cuts_emitted", 0)
            ),
            "graph.isomorphism.embeddings": counters.get("embeddings", 0),
        }
    )

    # serve-loop requests that got an answer; fresh submissions vs resubmits.
    served = [op for r in traced for op in r["ops"] if op.extra]
    fresh = [op for op in served if op.label.startswith("fresh:")]
    dedup = [op for op in served if op.label.startswith("dedup:")]

    def ms(values, fraction):
        return 1000.0 * percentile(values, fraction)

    metrics.update(
        {
            "serve.ack_p50_ms": ms([o.extra["ack_s"] for o in fresh], 0.5),
            "serve.ack_p90_ms": ms([o.extra["ack_s"] for o in fresh], 0.9),
            "serve.result_p50_ms": ms([o.seconds for o in fresh], 0.5),
            "serve.result_p90_ms": ms([o.seconds for o in fresh], 0.9),
            "serve.dedup_ack_p50_ms": ms([o.extra["ack_s"] for o in dedup], 0.5),
            "serve.dedup_p50_ms": ms([o.seconds for o in dedup], 0.5),
            "serve.queue_wait_p50_ms": ms(
                [o.extra["queue_wait_s"] for o in fresh if "queue_wait_s" in o.extra],
                0.5,
            ),
            "serve.run_p50_ms": ms([o.extra["run_s"] for o in fresh], 0.5),
            "serve.overhead_p50_ms": ms(
                [o.seconds - o.extra["run_s"] for o in fresh], 0.5
            ),
            "serve.worker_cache_hit_frac": ratio(
                sum(o.extra["cache_hits"] for o in fresh),
                sum(o.extra["cache_lookups"] for o in fresh),
            ),
        }
    )

    traced_wall = statistics.median(op_seconds(r) for r in traced)
    untraced_wall = statistics.median(op_seconds(r) for r in untraced)
    unattributed = sum(op_seconds(r) for r in traced) / runs - sum(self_time.values())
    metrics.update(
        {
            "unattributed_s": unattributed,
            "bench.unattributed_frac": ratio(unattributed, traced_wall),
            "bench.traced_pass_s": traced_wall,
            "bench.trace_overhead_frac": ratio(traced_wall, untraced_wall) - 1.0,
        }
    )
    return metrics


def host_fingerprint():
    import networkx
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "scipy_vendored_highs": importlib.util.find_spec("scipy.optimize._highspy")
        is not None,
    }


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def result_file(args, import_s, setup_samples, passes, result):
    """The full record of a run: provenance, raw samples, metrics."""
    ops = {}
    for record in passes:
        for op in record["ops"]:
            ops.setdefault(op.label, []).append(op.seconds)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "host": host_fingerprint(),
        "run_wall_s": time.perf_counter() - STARTED,
        "setup_repeats": SETUP_REPEATS,
        "min_passes": MIN_PASSES,
        "import_s": import_s,
        "setup_samples": summary(setup_samples),
        "passes": [
            {
                "traced": record["traced"],
                "op_seconds": op_seconds(record),
                "failed": [op.error for op in record["ops"] if op.error],
            }
            for record in passes
        ],
        "pass_op_seconds": summary(op_seconds(r) for r in passes if not r["traced"]),
        "op_seconds": {label: summary(values) for label, values in sorted(ops.items())},
        "result": result,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write a result file into DIR")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            f"error: no program source under {SRC}; run from the root of "
            f"a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [SRC, ROOT]
    from benchmarks.harness import workloads

    import_s = time.perf_counter() - STARTED
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _raise_deadline)
    signal.alarm(RUN_LIMIT_S)
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        rng = random.Random(args.seed)
        workload = workloads.make_workload(args.workload, ROOT, work_dir, rng)
        try:
            setup_samples, passes = measure(workload, rng, args.seconds, args.trace)
        finally:
            workload.close()
        # Read before the correctness check, which is outside every metric.
        peak_rss_mb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ) / 1024.0
        check_errors = workload.check()
        signal.alarm(0)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run is still using it

    check_outcomes(passes)
    errors = [op.error for r in passes for op in r["ops"] if op.error] + check_errors
    attempted = sum(len(r["ops"]) for r in passes)
    if args.trace:
        metrics = per_layer_metrics(passes)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(
            workload, import_s, setup_samples, passes, peak_rss_mb
        )
        units = END_TO_END
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    for error in errors[:20]:
        print(f"FAILED {error}", file=sys.stderr)
    for name in units:
        print(f"# {args.workload} {name} = {metrics[name]:.6g} {units[name]}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(
            args.out, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        )
        record = result_file(args, import_s, setup_samples, passes, result)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
