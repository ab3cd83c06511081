"""Perf — dependency-sliced incremental verification vs from-scratch.

Three arms per case, every arm bit-identical in status, cost and
iteration trajectory (pinned by
``tests/test_explore/test_incremental_verification.py`` and re-asserted
here):

* ``scratch-cold``  — the walk's slicing step off, fresh oracle: every
  (viewpoint, path) pair substituted, composed, hashed and solved anew
  each iteration. Every arm solves the candidate MILP through the
  engine's one persistent solver session, so all three verify the same
  candidates and can be compared.
* ``sliced-cold``   — dependency-sliced walk, fresh oracle: unchanged
  slices carry verdicts forward inside the run; provenance counts show
  how much of the plan that covers from a cold start.
* ``sliced-warm``   — dependency-sliced walk with the oracle warmed by
  one identical prior run: the sweep/CI re-verification scenario (a
  shared ``--cache`` SQLite file across jobs, a resumed sweep, a
  re-executed grid cell). This is the headline arm: verification should
  be several times faster than ``scratch-cold`` with the carried +
  cache-hit share of the plan well above 40%.

The headline metric is the *verification phase* (``refinement_time``):
on these templates the candidate MILP dominates total wall-clock, so
end-to-end speedup is reported for context but bounded by Amdahl.
No hard timing assertions (CI runners are too noisy) — the reuse
fractions, which are deterministic, are asserted instead.
"""

import time

import pytest

from repro.casestudies import epn, rpl
from repro.explore import ContrArcExplorer
from repro.explore.engine import ExplorationStatus
from repro.reporting.tables import format_seconds, render_table
from repro.runtime.oracle import OracleCache

from benchmarks.conftest import report, scenario_time_limit

#: ISSUE-pinned cases: the Fig. 5 RPL n=3 grid and the Table II EPN
#: (2,1,1) template on its decomposition arm (isomorphism off).
CASES = {
    "rpl-n3": (lambda: rpl.build_problem(3, 3), {}),
    "epn-2,1,1-decomp": (
        lambda: epn.build_problem(2, 1, 1),
        {"use_isomorphism": False},
    ),
}

_RESULTS = {}


def _explore(builder, engine, sliced, oracle):
    mapping_template, specification = builder()
    started = time.perf_counter()
    explorer = ContrArcExplorer(
        mapping_template,
        specification,
        oracle=oracle,
        max_iterations=2000,
        time_limit=scenario_time_limit(),
        **engine,
    )
    if not sliced:
        explorer.checker.slicer = explorer.checker.delta = None
    result = explorer.explore()
    return result, time.perf_counter() - started


def _run_case(name):
    builder, engine = CASES[name]
    arms = {}
    arms["scratch-cold"] = _explore(builder, engine, False, OracleCache())
    arms["sliced-cold"] = _explore(builder, engine, True, OracleCache())
    warm = OracleCache()
    _explore(builder, engine, True, warm)  # warm-up run, not reported
    hits_before = warm.stats.hits
    arms["sliced-warm"] = _explore(builder, engine, True, warm)
    arms["sliced-warm"][0].stats.oracle_cache = {
        "hits": warm.stats.hits - hits_before
    }
    return arms


@pytest.mark.parametrize("case", sorted(CASES), ids=str)
def test_case(benchmark, case):
    arms = benchmark.pedantic(_run_case, args=(case,), rounds=1, iterations=1)
    _RESULTS[case] = arms
    fingerprints = {
        arm: (
            result.status,
            round(result.cost, 9),
            result.stats.num_iterations,
        )
        for arm, (result, _) in arms.items()
    }
    assert len(set(fingerprints.values())) == 1, (
        f"arms diverged: {fingerprints}"
    )
    assert arms["scratch-cold"][0].status is ExplorationStatus.OPTIMAL
    # Reuse is deterministic: the warm re-verification arm must answer
    # well over 40% of its plan without a fresh solve (carried slices
    # plus oracle-served pairs), the ISSUE's acceptance floor.
    verification = arms["sliced-warm"][0].stats.verification
    reused = verification["carried"] + verification["cache_hit"]
    assert reused / verification["checks"] >= 0.4, verification
    # The scratch arm must record no provenance at all.
    assert arms["scratch-cold"][0].stats.verification is None


@pytest.fixture(scope="module", autouse=True)
def _module_report(results_dir):
    yield
    _render_report(results_dir)


def _arm_record(result, elapsed):
    stats = result.stats
    record = {
        "status": result.status.value,
        "cost": result.cost,
        "wall_clock": round(elapsed, 4),
        "iterations": stats.num_iterations,
        "refinement_time": round(stats.refinement_time, 4),
        "milp_time": round(stats.milp_time, 4),
    }
    if stats.verification is not None:
        record["verification"] = dict(stats.verification)
    return record


def _render_report(results_dir):
    if not _RESULTS:
        return
    rows = []
    data = {}
    for case in sorted(_RESULTS):
        arms = _RESULTS[case]
        baseline = arms["scratch-cold"][0].stats.refinement_time
        data[case] = {
            arm: _arm_record(result, elapsed)
            for arm, (result, elapsed) in arms.items()
        }
        for arm in ("scratch-cold", "sliced-cold", "sliced-warm"):
            result, elapsed = arms[arm]
            verification = result.stats.verification
            if verification:
                total = verification["checks"]
                reused = verification["carried"] + verification["cache_hit"]
                reuse = f"{100.0 * reused / total:.0f}%"
            else:
                reuse = "-"
            refinement = result.stats.refinement_time
            speedup = baseline / refinement if refinement else float("inf")
            data[case][arm]["verify_speedup"] = round(speedup, 2)
            rows.append(
                [
                    case,
                    arm,
                    format_seconds(elapsed),
                    format_seconds(refinement),
                    f"{speedup:.1f}x",
                    reuse,
                    result.stats.num_iterations,
                ]
            )
    text = render_table(
        ["case", "arm", "wall", "verify", "verify speedup", "reused", "iters"],
        rows,
        title="Perf - dependency-sliced incremental verification",
    )
    report(results_dir, "incremental_verification.txt", text, data=data)
