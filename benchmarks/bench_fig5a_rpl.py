"""Figure 5(a) — RPL exploration runtime vs problem size.

The paper plots ContrArc against ArchEx on the reconfigurable
production line while growing the per-stage candidate count
``n_A = n_B = n``. We reproduce the sweep with three explorers:

* ``contrarc``   — the complete method (isomorphism + decomposition);
* ``monolithic`` — the ArchEx-style one-shot MILP, whose compiled
  per-template-path timing constraints blow up with n;
* ``lazy``       — the lazy loop without certificates, the weakest
  comparable baseline, capped at ``REPRO_BENCH_TIME_LIMIT`` seconds.

Every run of an arm happens in its own spawned child process, so the
peak-RSS column (the child's ``ru_maxrss``) belongs to that arm alone.
ContrArc and the monolithic arm run ``REPEATS`` times and report the
median run with the spread of all runs; the lazy arm runs once, since
it spends its whole cap. Sizes go to ``REPRO_BENCH_RPL_MAX_N`` (default
5 here).

Expected shape (the paper's): all find the same cost; ContrArc's runtime
grows far slower than both baselines as n increases.
"""

import multiprocessing
import resource
import time

import pytest

from repro.casestudies import rpl
from repro.explore import ContrArcExplorer
from repro.explore.baseline import MonolithicExplorer, lazy_nogood_explorer
from repro.reporting.tables import format_seconds, render_table

from benchmarks.conftest import (
    exploration_record,
    report,
    rpl_max_n,
    scenario_time_limit,
)

SIZES = list(range(1, rpl_max_n(5) + 1))
REPEATS = 3
_RESULTS = {}


def _run_contrarc(n):
    mt, spec = rpl.build_problem(n, n)
    return ContrArcExplorer(
        mt, spec, max_iterations=5000, time_limit=scenario_time_limit()
    ).explore()


def _run_monolithic(n):
    mt, spec = rpl.build_problem(n, n)
    return MonolithicExplorer(mt, spec).explore()


def _run_lazy(n):
    mt, spec = rpl.build_problem(n, n)
    return lazy_nogood_explorer(
        mt, spec, max_iterations=20000, time_limit=scenario_time_limit()
    ).explore()


ARMS = {"contrarc": _run_contrarc, "monolithic": _run_monolithic, "lazy": _run_lazy}


def _measure(arm, n):
    """Child-process body: one run of ``arm`` at size ``n``, as its
    record plus the process's peak RSS in MiB."""
    started = time.perf_counter()
    result = ARMS[arm](n)
    record = exploration_record(result, time.perf_counter() - started)
    record["peak_rss_mb"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
    )
    return record


def _run_arm(arm, n, repeats):
    """``repeats`` runs of ``arm``, each in a fresh spawned process: the
    median-time run's record, with every run's time and peak RSS."""
    context = multiprocessing.get_context("spawn")
    runs = []
    for _ in range(repeats):
        with context.Pool(1) as pool:
            runs.append(pool.apply(_measure, (arm, n)))
    runs.sort(key=lambda record: record["wall_clock"])
    record = dict(runs[(len(runs) - 1) // 2])
    record["wall_clock_runs"] = [r["wall_clock"] for r in runs]
    record["peak_rss_mb_runs"] = [r["peak_rss_mb"] for r in runs]
    _RESULTS.setdefault(n, {})[arm] = record
    return record


def _bench(benchmark, arm, n, repeats):
    return benchmark.pedantic(
        _run_arm, args=(arm, n, repeats), rounds=1, iterations=1
    )


@pytest.mark.parametrize("n", SIZES)
def test_fig5a_contrarc(benchmark, n):
    assert _bench(benchmark, "contrarc", n, REPEATS)["status"] == "optimal"


@pytest.mark.parametrize("n", SIZES)
def test_fig5a_monolithic(benchmark, n):
    assert _bench(benchmark, "monolithic", n, REPEATS)["status"] == "optimal"


@pytest.mark.parametrize("n", SIZES)
def test_fig5a_lazy(benchmark, n):
    record = _bench(benchmark, "lazy", n, 1)
    assert record["status"] in ("optimal", "time_limit")


@pytest.fixture(scope="module", autouse=True)
def _module_report(results_dir):
    """Render the paper-style table after all scenarios ran."""
    yield
    _render_report(results_dir)


def _ratio(entries):
    """ContrArc wall-clock over monolithic wall-clock at one n, reported
    whichever way it goes (above 1 means the monolithic MILP is faster)."""
    contrarc, mono = entries.get("contrarc"), entries.get("monolithic")
    if not (contrarc and mono):
        return None
    if not contrarc["status"] == mono["status"] == "optimal":
        return None
    return round(contrarc["wall_clock"] / mono["wall_clock"], 2)


def _time(record):
    """Median wall-clock, with the runs' range when there are several."""
    if record is None:
        return None
    runs = record["wall_clock_runs"]
    text = format_seconds(record["wall_clock"])
    if len(runs) > 1:
        text += f" ({format_seconds(runs[0])}-{format_seconds(runs[-1])})"
    if record["status"] == "time_limit":
        text += ">"
    return text


def _rss(record):
    return None if record is None else max(record["peak_rss_mb_runs"])


def _render_report(results_dir):
    """Render the Fig. 5(a) series and check the reproduction claims."""
    headers = [
        "n (=n_A=n_B)",
        "ContrArc time",
        "ContrArc iters",
        "ContrArc MiB",
        "ArchEx-mono time",
        "mono MiB",
        "ContrArc/mono",
        "lazy time",
        "lazy iters",
        "lazy MiB",
        "same cost",
    ]
    rows = []
    for n in SIZES:
        entries = _RESULTS.get(n, {})
        if "contrarc" not in entries:
            continue
        contrarc = entries["contrarc"]
        mono = entries.get("monolithic")
        lazy = entries.get("lazy")
        costs = {
            round(r["cost"], 6) for r in entries.values() if r["cost"] is not None
        }
        timed_out = any(r["status"] == "time_limit" for r in entries.values())
        rows.append(
            [
                n,
                _time(contrarc),
                contrarc["iterations"],
                _rss(contrarc),
                _time(mono),
                _rss(mono),
                _ratio(entries),
                _time(lazy),
                lazy["iterations"] if lazy else None,
                _rss(lazy),
                "yes" if len(costs) == 1 else ("n/a (timeout)" if timed_out else "NO"),
            ]
        )
        # Reproduction claim: whenever all explorers finished, the
        # optimal costs agree.
        if not timed_out:
            assert len(costs) == 1, f"cost mismatch at n={n}: {costs}"
    text = render_table(
        headers,
        rows,
        title=(
            "Fig. 5(a) reproduction - RPL runtime vs size "
            f"(median of {REPEATS} runs, range in brackets; "
            "MiB = peak RSS of the arm's own process)"
        ),
    )
    from repro.reporting.plots import render_series_plot

    series = {"contrarc": [], "monolithic": [], "lazy": []}
    for n in SIZES:
        entries = _RESULTS.get(n, {})
        for name in series:
            if name in entries:
                record = entries[name]
                finished = record["status"] == "optimal"
                series[name].append((n, record["wall_clock"] if finished else None))
    plot = render_series_plot(
        series, title="Fig. 5(a): exploration runtime vs n (log scale)"
    )
    data = {str(n): dict(entries) for n, entries in _RESULTS.items()}
    for n, entries in _RESULTS.items():
        ratio = _ratio(entries)
        if ratio is not None:
            data[str(n)]["contrarc_over_monolithic"] = ratio
    report(
        results_dir,
        "fig5a_rpl.txt",
        text + "\n\n" + plot,
        data=data,
        repeats=REPEATS,
    )
