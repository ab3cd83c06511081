"""Sweep grids and result aggregation.

Builders produce the job grids behind the paper's artifacts:

* :func:`table2_grid` — the Table II matrix: EPN templates x the three
  certificate scenarios;
* :func:`fig5_rpl_grid` — the Fig. 5a axis: RPL instances of growing
  size under the complete method;
* :func:`wsn_grid` — a WSN scaling sweep (the "as many scenarios as you
  can imagine" axis beyond the paper).

:func:`run_sweep` drives a :class:`~repro.runtime.scheduler.Scheduler`
over a grid and returns a :class:`SweepReport` whose rows are plain
``JobResult.to_dict()`` records — the same records the per-command
``--json`` CLI flag prints, so ad-hoc runs and sweeps aggregate through
one path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.runtime.job import JobResult, JobSpec, SCENARIOS
from repro.runtime.ledger import completed_records, fold_journal, plan_resume
from repro.runtime.scheduler import Scheduler
from repro.reporting.tables import format_seconds, render_table

#: The representative Table II subset used when a full sweep is not
#: requested (mirrors benchmarks/conftest.py).
DEFAULT_EPN_TEMPLATES: Tuple[Tuple[int, int, int], ...] = (
    (1, 0, 0),
    (2, 0, 0),
    (1, 1, 0),
    (2, 1, 0),
)


def _engine(flags: Optional[Dict[str, Any]], **extra: Any) -> Dict[str, Any]:
    merged = dict(extra)
    merged.update(flags or {})
    return {k: v for k, v in merged.items() if v is not None}


def table2_grid(
    templates: Optional[Sequence[Tuple[int, int, int]]] = None,
    scenarios: Optional[Sequence[str]] = None,
    engine: Optional[Dict[str, Any]] = None,
) -> List[JobSpec]:
    """EPN templates x certificate scenarios (the Table II matrix)."""
    specs = []
    for left, right, apu in templates or DEFAULT_EPN_TEMPLATES:
        for scenario in scenarios or sorted(SCENARIOS):
            specs.append(
                JobSpec(
                    "epn",
                    sizes={"left": left, "right": right, "apu": apu},
                    engine=_engine(engine, scenario=scenario),
                    label=f"epn({left},{right},{apu}) {scenario}",
                )
            )
    return specs


def fig5_rpl_grid(
    max_n: int = 3,
    engine: Optional[Dict[str, Any]] = None,
) -> List[JobSpec]:
    """RPL instances of growing size (the Fig. 5a runtime axis)."""
    return [
        JobSpec(
            "rpl",
            sizes={"n_a": n, "n_b": 0},
            engine=_engine(engine, scenario="complete"),
            label=f"rpl(n={n}) complete",
        )
        for n in range(1, max_n + 1)
    ]


def wsn_grid(
    max_sensors: int = 3,
    relays: int = 2,
    tiers: int = 1,
    engine: Optional[Dict[str, Any]] = None,
) -> List[JobSpec]:
    """WSN instances of growing sensor count."""
    return [
        JobSpec(
            "wsn",
            sizes={"num_sensors": s, "num_relays": relays, "tiers": tiers},
            engine=_engine(engine, scenario="complete"),
            label=f"wsn(s={s},r={relays},t={tiers}) complete",
        )
        for s in range(1, max_sensors + 1)
    ]


GRIDS = {
    "table2-epn": lambda args: table2_grid(engine=args),
    "fig5-rpl": lambda args: fig5_rpl_grid(engine=args),
    "wsn": lambda args: wsn_grid(engine=args),
}


class SweepReport:
    """Aggregated outcome of one sweep run."""

    def __init__(
        self,
        results: Sequence[JobResult],
        wall_clock: float,
        replayed: int = 0,
    ) -> None:
        self.results = list(results)
        self.wall_clock = wall_clock
        #: How many rows came from a ``--resume`` ledger instead of
        #: being executed in this run.
        self.replayed = replayed

    @classmethod
    def from_journal(cls, path: str, strict: bool = False) -> "SweepReport":
        """Rebuild a report from a journal's last-record-wins ledger view.

        Aggregates over the :func:`repro.runtime.ledger.load_ledger`
        view of :func:`~repro.runtime.ledger.fold_journal` — one record
        per job id, the last ``job_end`` winning — never over raw
        events: a journal holding both a crashed attempt and its
        retried (or resume-replayed) terminal record for one job counts
        that job once. Wall clock spans the journal's first to last
        timestamp.
        The ``repro serve`` namespace report endpoint is built on this.
        """
        fold = fold_journal(path, strict=strict)
        results = [
            JobResult.from_dict(record)
            for record in fold.ledger().values()
            if record.get("spec")
        ]
        wall_clock = (
            fold.last_ts - fold.first_ts if fold.first_ts is not None else 0.0
        )
        return cls(results, wall_clock)

    def _latest_by_job(self) -> List[JobResult]:
        """Last-record-wins view of the rows, in first-seen job order.

        A report assembled from journal rows can legitimately carry
        several records for one job (a crashed attempt plus its
        replayed terminal record); every aggregate must count each job
        exactly once, mirroring ``load_ledger`` semantics.
        """
        latest: Dict[str, JobResult] = {}
        for result in self.results:
            latest[result.job_id] = result
        return list(latest.values())

    @property
    def records(self) -> List[Dict[str, Any]]:
        """The machine-readable rows (``JobResult.to_dict()`` each)."""
        return [result.to_dict() for result in self.results]

    @property
    def cache_totals(self) -> Dict[str, Any]:
        jobs = self._latest_by_job()
        hits = sum(r.cache.get("hits", 0) for r in jobs)
        misses = sum(r.cache.get("misses", 0) for r in jobs)
        queries = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / queries if queries else 0.0,
        }

    @property
    def total_job_time(self) -> float:
        """Sum of per-job durations (serial-equivalent wall clock).

        Counts each job once (last record wins) even when the row set
        holds both a failed attempt and its terminal record.
        """
        return sum(r.duration for r in self._latest_by_job())

    def render(self, title: str = "sweep") -> str:
        rows = []
        for result in self.results:
            stats = result.stats
            rows.append(
                [
                    result.spec.label,
                    result.job_id[:8],
                    result.status,
                    format_seconds(result.duration),
                    stats.get("num_iterations"),
                    f"{result.cost:g}" if result.cost is not None else "-",
                    f"{result.cache.get('hit_rate', 0.0):.0%}"
                    if result.cache
                    else "-",
                ]
            )
        table = render_table(
            ["job", "id", "status", "time", "iters", "cost", "cache"],
            rows,
            title=title,
        )
        totals = self.cache_totals
        resumed = (
            f" ({self.replayed} replayed from ledger)" if self.replayed else ""
        )
        footer = (
            f"wall-clock {self.wall_clock:.2f}s over "
            f"{len(self._latest_by_job())} jobs"
            f"{resumed} "
            f"(sum of job times {self.total_job_time:.2f}s); "
            f"oracle cache: {totals['hits']} hits / "
            f"{totals['misses']} misses ({totals['hit_rate']:.0%})"
        )
        return f"{table}\n{footer}"


def run_sweep(
    specs: Sequence[JobSpec],
    scheduler: Optional[Scheduler] = None,
    resume: Optional[str] = None,
    **scheduler_kwargs: Any,
) -> SweepReport:
    """Run a grid and aggregate it. Extra kwargs configure the scheduler.

    ``resume`` names a telemetry journal from a previous (possibly
    killed) run of the same grid: jobs with a successful terminal
    ``job_end`` record are replayed from the ledger, everything else is
    executed, and the report interleaves both in grid order — so an
    interrupted sweep plus its resume yields the same report as one
    uninterrupted run (modulo wall-clock fields; see
    :func:`repro.runtime.ledger.canonical_record`).

    A scheduler built here from ``scheduler_kwargs`` is closed (its
    worker pool shut down) before this returns; a passed-in one stays
    open for its owner to reuse and close.
    """
    import time

    if scheduler is None:
        with Scheduler(**scheduler_kwargs) as owned:
            return run_sweep(specs, scheduler=owned, resume=resume)
    replay: Dict[str, Dict[str, Any]] = {}
    todo: Sequence[JobSpec] = specs
    if resume is not None:
        todo, replay = plan_resume(specs, completed_records(resume))
        scheduler.telemetry.emit(
            "sweep_resume",
            journal=resume,
            replayed=len(replay),
            pending=len(todo),
        )
    started = time.perf_counter()
    fresh = {result.job_id: result for result in scheduler.run(todo)}
    results = [
        fresh[spec.job_id]
        if spec.job_id in fresh
        else JobResult.from_dict(replay[spec.job_id])
        for spec in specs
    ]
    return SweepReport(
        results, time.perf_counter() - started, replayed=len(replay)
    )
