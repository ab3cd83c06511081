"""Sweep grid builders and aggregation."""

import multiprocessing

from repro.casestudies.epn import TABLE2_TEMPLATES
from repro.runtime.job import SCENARIOS
from repro.runtime.scheduler import Scheduler
from repro.runtime.sweep import (
    SweepReport,
    fig5_rpl_grid,
    run_sweep,
    table2_grid,
    wsn_grid,
)


def _child_pids():
    return {child.pid for child in multiprocessing.active_children()}


class TestGrids:
    def test_table2_grid_is_templates_x_scenarios(self):
        specs = table2_grid(templates=TABLE2_TEMPLATES[:2])
        assert len(specs) == 2 * len(SCENARIOS)
        assert all(s.case == "epn" for s in specs)
        assert len({s.job_id for s in specs}) == len(specs)

    def test_engine_overrides_reach_every_job(self):
        specs = table2_grid(
            templates=[(1, 0, 0)], engine={"max_iterations": 7, "time_limit": 9.0}
        )
        for spec in specs:
            kwargs = spec.engine_kwargs()
            assert kwargs["max_iterations"] == 7
            assert kwargs["time_limit"] == 9.0

    def test_fig5_grid_sizes(self):
        specs = fig5_rpl_grid(max_n=4)
        assert [s.sizes["n_a"] for s in specs] == [1, 2, 3, 4]

    def test_wsn_grid_sizes(self):
        specs = wsn_grid(max_sensors=2)
        assert [s.sizes["num_sensors"] for s in specs] == [1, 2]


class TestRunSweep:
    def test_serial_sweep_aggregates(self):
        specs = fig5_rpl_grid(max_n=1, engine={"max_iterations": 200})
        report = run_sweep(specs, serial=True, use_cache=False)
        assert len(report.results) == 1
        assert report.results[0].status == "optimal"
        assert report.wall_clock > 0
        assert report.records[0]["spec"]["case"] == "rpl"
        rendered = report.render()
        assert "rpl(n=1)" in rendered
        assert "oracle cache" in rendered

    def test_pooled_sweep_closes_the_scheduler_it_builds(self):
        before = _child_pids()
        specs = fig5_rpl_grid(max_n=1, engine={"max_iterations": 200})
        report = run_sweep(specs, max_workers=1, use_cache=False)
        assert report.results[0].status == "optimal"
        assert _child_pids() <= before  # its worker is gone

    def test_passed_in_scheduler_keeps_its_pool(self):
        before = _child_pids()
        specs = fig5_rpl_grid(max_n=1, engine={"max_iterations": 200})
        with Scheduler(max_workers=1, use_cache=False) as scheduler:
            run_sweep(specs, scheduler=scheduler)
            assert _child_pids() - before  # the owner closes it
        assert _child_pids() <= before

    def test_cache_totals_cover_all_jobs(self):
        specs = fig5_rpl_grid(max_n=1, engine={"max_iterations": 200})
        scheduler = Scheduler(serial=True)  # in-memory oracle, no disk
        report = run_sweep(specs, scheduler=scheduler)
        totals = report.cache_totals
        assert totals["misses"] > 0
        assert 0.0 <= totals["hit_rate"] <= 1.0

    def test_report_renders_failures(self):
        from repro.runtime.job import JobResult, JobSpec

        spec = JobSpec("rpl", sizes={"n_a": 1})
        report = SweepReport(
            [JobResult(spec.job_id, spec, "crashed", error="boom")], 0.1
        )
        rendered = report.render()
        assert "crashed" in rendered


class TestAggregationDedup:
    """Crashed-then-replayed journals must not double-count a job."""

    @staticmethod
    def _result(status, hits=0, misses=0, duration=1.0):
        from repro.runtime.job import JobResult, JobSpec

        spec = JobSpec("rpl", sizes={"n_a": 1})
        return JobResult(
            spec.job_id,
            spec,
            status,
            duration=duration,
            cache={"hits": hits, "misses": misses},
        )

    def test_duplicate_rows_aggregate_once(self):
        # Regression: a journal holding both a crashed attempt and its
        # replayed terminal record produced two rows for one job, and
        # cache_totals / total_job_time summed them both. Aggregation
        # must use the ledger's last-record-wins view.
        crashed = self._result("crashed", duration=2.0)
        final = self._result("optimal", hits=3, misses=1, duration=5.0)
        assert crashed.job_id == final.job_id
        report = SweepReport([crashed, final], wall_clock=6.0)
        assert report.total_job_time == 5.0  # not 7.0
        totals = report.cache_totals
        assert (totals["hits"], totals["misses"]) == (3, 1)
        # The rendered footer counts jobs, not rows.
        assert "1 jobs" in report.render()

    def test_last_record_wins_order(self):
        final = self._result("optimal", hits=2, duration=4.0)
        crashed = self._result("crashed", duration=1.0)
        # Whatever landed last in the row list is the job's truth.
        report = SweepReport([final, crashed], wall_clock=5.0)
        assert report.total_job_time == 1.0

    def test_from_journal_applies_ledger_view(self, tmp_path):
        from repro.runtime.telemetry import TelemetryLogger

        path = str(tmp_path / "journal.jsonl")
        logger = TelemetryLogger(path)
        crashed = self._result("crashed", duration=2.0)
        final = self._result("optimal", hits=3, misses=1, duration=5.0)
        logger.emit("sweep_start", jobs=1)
        logger.emit("job_end", **crashed.to_dict())
        logger.emit("job_end", **final.to_dict())
        logger.emit("sweep_end", jobs=1)
        logger.close()
        report = SweepReport.from_journal(path)
        assert len(report.results) == 1
        assert report.results[0].status == "optimal"
        assert report.total_job_time == 5.0
        assert report.cache_totals["hits"] == 3
        assert report.wall_clock >= 0.0
