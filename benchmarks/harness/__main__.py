"""Run the whole benchmark and print every metric.

    PYTHONPATH=src python -m benchmarks.harness [--seed N ...] \
        [--workload NAME ...] [--out DIR]

Each workload runs in a fresh subprocess of ``run.py`` for the
``run_seconds`` fixed in BENCHMARK.json: one untraced run per seed, and
one traced run (per-layer metrics) for the first seed. Every
end-to-end metric is printed by name and unit, with its median and the
quartile spread over the seeds. The exit status is 1 if any answer was
wrong. ``--out`` keeps every run's result file plus ``summary.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from benchmarks.harness.run import HARNESS, ROOT, git_sha, host_fingerprint


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def spread(values):
    """Quartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload, seed, seconds, trace, out):
    command = [
        sys.executable,
        os.path.join(HARNESS, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if out:
        command += ["--out", out]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {done.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append", help="repeatable")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", help="directory for result files")
    args = parser.parse_args(argv)
    seeds = args.seed or [0]
    seconds = benchmark["run_seconds"]
    end_to_end = benchmark["end_to_end"]

    summary = {
        "git_sha": git_sha(),
        "host": host_fingerprint(),
        "seeds": seeds,
        "run_seconds": seconds,
        "workloads": {},
    }
    correct = True
    for workload in args.workload or names:
        runs = [run_once(workload, seed, seconds, 0, args.out) for seed in seeds]
        traced = run_once(workload, seeds[0], seconds, 1, args.out)
        correct = correct and traced["correct"] and all(r["correct"] for r in runs)
        rows = {}
        for metric in end_to_end:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            rows[metric["name"]] = {
                "unit": metric["unit"],
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": metric["bound"],
                "values": values,
            }
            print(
                f"{workload:12s} {metric['name']:14s} "
                f"{statistics.median(values):12.4f} {metric['unit']:4s} "
                f"spread {spread(values):6.1%} (bound {metric['bound']:.0%})"
            )
        failed = sum(r["failed"] for r in runs) + traced["failed"]
        attempted = sum(r["attempted"] for r in runs) + traced["attempted"]
        print(f"{workload:12s} failed {failed}/{attempted} operations")
        summary["workloads"][workload] = {
            "end_to_end": rows,
            "per_layer": {
                name: entry["value"] for name, entry in traced["metrics"].items()
            },
            "attempted": attempted,
            "failed": failed,
        }
    if args.out:
        with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
