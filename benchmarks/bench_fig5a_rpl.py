"""Figure 5(a) — RPL exploration runtime vs problem size.

The paper plots ContrArc against ArchEx on the reconfigurable
production line while growing the per-stage candidate count
``n_A = n_B = n``. We reproduce the sweep with three explorers:

* ``contrarc``   — the complete method (isomorphism + decomposition);
* ``monolithic`` — the ArchEx-style one-shot MILP, whose compiled
  per-template-path timing constraints blow up with n;
* ``lazy``       — the lazy loop without certificates, the weakest
  comparable baseline.

Expected shape: all find the same cost; ContrArc's runtime grows far
slower than both baselines as n increases.
"""

import time

import pytest

from repro.casestudies import rpl
from repro.explore import ContrArcExplorer
from repro.explore.baseline import MonolithicExplorer, lazy_nogood_explorer
from repro.explore.engine import ExplorationStatus
from repro.reporting.tables import format_seconds, render_table

from benchmarks.conftest import (
    exploration_record,
    report,
    rpl_max_n,
    scenario_time_limit,
)

SIZES = list(range(1, rpl_max_n() + 1))
_RESULTS = {}


def _record(name, n, result, elapsed):
    _RESULTS.setdefault(n, {})[name] = (result, elapsed)


def _run_contrarc(n):
    mt, spec = rpl.build_problem(n, n)
    return ContrArcExplorer(
        mt,
        spec,
        max_iterations=5000,
        time_limit=scenario_time_limit(),
        profile=True,
    ).explore()


def _run_monolithic(n):
    mt, spec = rpl.build_problem(n, n)
    return MonolithicExplorer(mt, spec).explore()


def _run_lazy(n):
    mt, spec = rpl.build_problem(n, n)
    return lazy_nogood_explorer(
        mt, spec, max_iterations=20000, time_limit=scenario_time_limit()
    ).explore()


@pytest.mark.parametrize("n", SIZES)
def test_fig5a_contrarc(benchmark, n):
    started = time.perf_counter()
    result = benchmark.pedantic(_run_contrarc, args=(n,), rounds=1, iterations=1)
    _record("contrarc", n, result, time.perf_counter() - started)
    assert result.status is ExplorationStatus.OPTIMAL


@pytest.mark.parametrize("n", SIZES)
def test_fig5a_monolithic(benchmark, n):
    started = time.perf_counter()
    result = benchmark.pedantic(_run_monolithic, args=(n,), rounds=1, iterations=1)
    _record("monolithic", n, result, time.perf_counter() - started)
    assert result.status is ExplorationStatus.OPTIMAL


@pytest.mark.parametrize("n", SIZES)
def test_fig5a_lazy(benchmark, n):
    started = time.perf_counter()
    result = benchmark.pedantic(_run_lazy, args=(n,), rounds=1, iterations=1)
    _record("lazy", n, result, time.perf_counter() - started)
    assert result.status in (
        ExplorationStatus.OPTIMAL,
        ExplorationStatus.TIME_LIMIT,
    )


@pytest.fixture(scope="module", autouse=True)
def _module_report(results_dir):
    """Render the paper-style table after all scenarios ran."""
    yield
    _render_report(results_dir)


def _ratio(entries):
    """ContrArc wall-clock over monolithic wall-clock at one n, reported
    whichever way it goes (above 1 means the monolithic MILP is faster)."""
    if "contrarc" not in entries or "monolithic" not in entries:
        return None
    (contrarc, c_time), (mono, m_time) = entries["contrarc"], entries["monolithic"]
    if not (contrarc.is_optimal and mono.is_optimal):
        return None
    return round(c_time / m_time, 2)


def _render_report(results_dir):
    """Render the Fig. 5(a) series and check the reproduction claims."""
    headers = [
        "n (=n_A=n_B)",
        "ContrArc time",
        "ContrArc iters",
        "ArchEx-mono time",
        "ContrArc/mono",
        "lazy time",
        "lazy iters",
        "same cost",
    ]
    rows = []
    for n in SIZES:
        entries = _RESULTS.get(n, {})
        if "contrarc" not in entries:
            continue
        contrarc, c_time = entries["contrarc"]
        mono, m_time = entries.get("monolithic", (None, None))
        lazy, l_time = entries.get("lazy", (None, None))
        costs = {
            round(r.cost, 6)
            for r, _ in entries.values()
            if r is not None and r.cost is not None
        }
        timed_out = any(
            r.status is ExplorationStatus.TIME_LIMIT
            for r, _ in entries.values()
            if r is not None
        )
        rows.append(
            [
                n,
                format_seconds(c_time),
                contrarc.stats.num_iterations,
                format_seconds(m_time),
                _ratio(entries),
                format_seconds(l_time)
                + (">" if lazy and lazy.status is ExplorationStatus.TIME_LIMIT else ""),
                lazy.stats.num_iterations if lazy else None,
                "yes" if len(costs) == 1 else ("n/a (timeout)" if timed_out else "NO"),
            ]
        )
        # Reproduction claim: whenever all explorers finished, the
        # optimal costs agree.
        if not timed_out:
            assert len(costs) == 1, f"cost mismatch at n={n}: {costs}"
    text = render_table(
        headers, rows, title="Fig. 5(a) reproduction - RPL runtime vs size"
    )
    from repro.reporting.plots import render_series_plot

    series = {"contrarc": [], "monolithic": [], "lazy": []}
    for n in SIZES:
        entries = _RESULTS.get(n, {})
        for name in series:
            if name in entries:
                result, elapsed = entries[name]
                finished = result.status is ExplorationStatus.OPTIMAL
                series[name].append((n, elapsed if finished else None))
    plot = render_series_plot(
        series, title="Fig. 5(a): exploration runtime vs n (log scale)"
    )
    data = {
        str(n): {
            name: exploration_record(result, elapsed)
            for name, (result, elapsed) in entries.items()
        }
        for n, entries in _RESULTS.items()
    }
    for n, entries in _RESULTS.items():
        ratio = _ratio(entries)
        if ratio is not None:
            data[str(n)]["contrarc_over_monolithic"] = ratio
    report(results_dir, "fig5a_rpl.txt", text + "\n\n" + plot, data=data)
