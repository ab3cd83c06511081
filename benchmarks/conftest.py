"""Benchmark harness configuration.

Environment knobs (all optional):

* ``REPRO_BENCH_RPL_MAX_N``   — largest RPL size for the Fig. 5 sweeps
  (default 5 for Fig. 5(a), 3 for Fig. 5(b)).
* ``REPRO_BENCH_EPN_FULL``    — set to 1 to run all ten Table II
  templates; default runs a representative six-row subset.
* ``REPRO_BENCH_TIME_LIMIT``  — per-scenario wall-clock budget in
  seconds (default 120). Scenarios that exceed it are reported as
  ``>limit`` — the paper's slowest cells run for thousands of seconds
  by design, which is the very effect being demonstrated.

Each bench writes its paper-style table to ``benchmarks/results/``, and
(when it passes structured data to :func:`report`) a machine-readable
``BENCH_<name>.json`` twin so the perf trajectory is diffable across
PRs.
"""

import json
import os
import pathlib
import subprocess

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
ROOT = RESULTS_DIR.parent.parent


def rpl_max_n(default: int = 3) -> int:
    return int(os.environ.get("REPRO_BENCH_RPL_MAX_N", default))


def epn_templates():
    from repro.casestudies.epn import TABLE2_TEMPLATES

    if os.environ.get("REPRO_BENCH_EPN_FULL", "0") == "1":
        return list(TABLE2_TEMPLATES)
    return [(1, 0, 0), (2, 0, 0), (1, 1, 0), (2, 1, 0), (1, 1, 1), (2, 1, 1)]


def scenario_time_limit() -> float:
    return float(os.environ.get("REPRO_BENCH_TIME_LIMIT", "120"))


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def git_dirty():
    """Whether the checkout differs from its commit outside the results.

    True when ``git status --porcelain`` lists a change (untracked
    files included) anywhere but ``benchmarks/results/``, where the
    twins themselves land; None without a ``.git`` or a working git.
    """
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain", "--", ".",
             ":(exclude)benchmarks/results"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return bool(out.stdout.strip()) if out.returncode == 0 else None


def report(
    results_dir: pathlib.Path, name: str, text: str, data=None, repeats: int = 1
) -> None:
    """Print a rendered table and persist it under benchmarks/results/.

    ``data`` (a JSON-serializable dict) additionally lands in
    ``BENCH_<stem>.json`` next to the table — per-case wall-clock,
    iteration counts and phase breakdowns, for machine consumption —
    stamped under ``provenance`` with the host fingerprint, the git sha
    of the checkout that ran it, whether that checkout had uncommitted
    changes (``dirty``), and ``repeats``, the runs per case.
    """
    from benchmarks.harness.run import git_sha, host_fingerprint

    print()
    print(text)
    (results_dir / name).write_text(text + "\n", encoding="utf-8")
    if data is not None:
        data = dict(
            data,
            provenance={
                "host": host_fingerprint(),
                "git_sha": git_sha(),
                "dirty": git_dirty(),
                "repeats": repeats,
            },
        )
        stem = pathlib.Path(name).stem
        (results_dir / f"BENCH_{stem}.json").write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def exploration_record(result, elapsed: float) -> dict:
    """Per-case JSON record from an ExplorationResult + wall-clock."""
    stats = result.stats
    record = {
        "status": result.status.value,
        "cost": result.cost,
        "wall_clock": round(elapsed, 4),
        "iterations": stats.num_iterations,
        "total_cuts": stats.total_cuts,
        "milp_variables": stats.milp_variables,
        "milp_constraints": stats.milp_constraints,
        "final_milp_variables": stats.final_milp_variables,
        "final_milp_constraints": stats.final_milp_constraints,
    }
    if stats.phase_profile:
        record["phases"] = {
            name: round(seconds, 4)
            for name, seconds in stats.phase_profile["totals"].items()
        }
    return record
