"""Self-test of the benchmark harness (not part of the tier-1 suite).

    python -m pytest benchmarks/harness -q
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys
import time

import pytest

HARNESS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HARNESS))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from benchmarks.harness import run, workloads  # noqa: E402
from benchmarks.harness.layers import (  # noqa: E402
    LayerTracer,
    original_attributes,
    patched,
)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _tiny_workload():
    """EPN(1,0,0) alone: the smallest real exploration."""
    kind = "epn(1,0,0)"
    instance = (kind, lambda: workloads.epn.build_problem(1, 0, 0), 25.0)
    return workloads.ExploreWorkload([instance], light=kind, heavy=kind)


def test_patches_restore_identical_originals():
    before = original_attributes()
    with patched(LayerTracer()):
        during = original_attributes()
        assert all(now is not orig for (_, _, orig), (_, _, now) in zip(before, during))
    after = original_attributes()
    assert all(orig is now for (_, _, orig), (_, _, now) in zip(before, after))


def test_patches_restored_after_an_exception():
    before = original_attributes()
    with pytest.raises(RuntimeError):
        with patched(LayerTracer()):
            raise RuntimeError("boom")
    after = original_attributes()
    assert all(orig is now for (_, _, orig), (_, _, now) in zip(before, after))


def test_self_times_add_up_to_traced_wall_on_epn_100():
    tracer = LayerTracer()
    mapping_template, specification = workloads.epn.build_problem(1, 0, 0)
    with patched(tracer):
        started = time.perf_counter()
        workloads.ContrArcExplorer(mapping_template, specification).explore()
        wall = time.perf_counter() - started
    unattributed = wall - tracer.total_self_time
    assert abs(tracer.total_self_time + unattributed - wall) <= 0.01 * wall
    # Nested spans neither lose nor double-count time: everything inside
    # the root explore span is attributed, so almost nothing is left.
    assert 0.0 <= unattributed <= 0.01 * wall
    assert tracer.calls["explore.engine.loop"] == 1
    assert tracer.calls["solver.session.solve"] >= 1


def test_traced_and_untraced_outcomes_are_identical():
    rng = random.Random(0)
    _setup, passes = run.measure(_tiny_workload(), rng, seconds=0, trace=1)
    assert [record["traced"] for record in passes] == [False, True]
    run.check_outcomes(passes)
    untraced, traced = (record["ops"][0] for record in passes)
    assert untraced.error is None and traced.error is None
    assert untraced.outcome == traced.outcome


def test_metric_names_are_valid_and_emitted():
    pattern = re.compile(r"^[A-Za-z0-9_.-]+$")
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for names in declared.values():
        assert all(pattern.match(name) for name in names)
    workload = _tiny_workload()
    rng = random.Random(0)
    setup, passes = run.measure(workload, rng, seconds=0, trace=0)
    emitted = run.end_to_end_metrics(workload, 0.5, setup, passes, 100.0)
    assert set(emitted) == set(declared["end_to_end"]) == set(run.END_TO_END)
    _setup, passes = run.measure(workload, rng, seconds=0, trace=1)
    emitted = run.per_layer_metrics(passes)
    assert set(emitted) == set(declared["per_layer"]) == set(run.PER_LAYER)
    assert declared["end_to_end"] == run.END_TO_END
    assert declared["per_layer"] == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_result_line(trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HARNESS, "run.py"), "--workload", "epn-grid",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[section]}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HARNESS,
        tmp_path / "benchmarks" / "harness",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/harness/run.py", "--workload", "epn-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
