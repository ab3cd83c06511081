"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rpl_defaults(self):
        args = build_parser().parse_args(["rpl"])
        assert args.n_a == 2
        assert args.n_b == 0
        assert args.backend == "scipy"

    def test_epn_flags(self):
        args = build_parser().parse_args(
            ["epn", "--left", "2", "--no-isomorphism", "--time-limit", "9"]
        )
        assert args.left == 2
        assert args.no_isomorphism
        assert args.time_limit == 9.0

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["rpl", "--backend", "gurobi"])

    @pytest.mark.parametrize("value", ["native", "scipy"])
    def test_backend_flag_retired(self, capsys, value):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["rpl", "--backend", value])
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_multicut_flag_retired(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["epn", "--no-multicut"])
        assert "unrecognized arguments: --no-multicut" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rpl", "epn", "wsn", "table2"])
    @pytest.mark.parametrize(
        "flag", ["--incremental", "--no-incremental", "--profile"]
    )
    def test_incremental_and_profile_flags_retired(self, capsys, command, flag):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestExecution:
    def test_rpl_run(self, capsys, tmp_path):
        dot = tmp_path / "arch.dot"
        code = main(
            ["rpl", "--n-a", "1", "--deadline", "100", "--dot", str(dot)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "status:     optimal" in out
        assert "m1_A_1" in out
        assert dot.read_text().startswith("digraph")

    def test_epn_run(self, capsys):
        code = main(["epn", "--left", "1", "--right", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gen_L1" in out

    def test_infeasible_returns_nonzero(self, capsys):
        code = main(
            ["epn", "--left", "1", "--right", "0", "--loss-budget", "0.01",
             "--max-iterations", "500"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "infeasible" in out

    def test_table2_run(self, capsys):
        code = main(
            ["table2", "--left", "1", "--right", "0", "--time-limit", "60"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "only-iso" in out
        assert "complete" in out

    def test_wsn_run_includes_audit(self, capsys):
        code = main(["wsn", "--tiers", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "architecture audit" in out
        assert "relay" in out

    def test_topk_run(self, capsys):
        code = main(["topk", "epn", "-k", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "#1: cost" in out
        assert "#2: cost" in out

    def test_diagnose_infeasible(self, capsys):
        code = main(["diagnose", "epn", "--demand", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert "conflict set" in out

    def test_diagnose_feasible_space_reports_unavailable(self, capsys):
        code = main(["diagnose", "epn"])
        out = capsys.readouterr().out
        assert code == 1
        assert "diagnosis unavailable" in out


class TestJsonOutput:
    def test_rpl_json_record(self, capsys):
        import json

        code = main(["rpl", "--n-a", "1", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        record = json.loads(out)
        assert record["status"] == "optimal"
        assert record["spec"]["case"] == "rpl"
        assert record["spec"]["sizes"] == {"n_a": 1, "n_b": 0}
        assert record["stats"]["num_iterations"] >= 1
        assert record["selected"]
        assert record["job_id"]

    def test_json_id_matches_runtime_spec(self, capsys):
        import json

        from repro.runtime.job import JobSpec

        main(["rpl", "--n-a", "1", "--json"])
        record = json.loads(capsys.readouterr().out)
        assert record["job_id"] == JobSpec.from_dict(record["spec"]).job_id

    def test_default_run_reports_verification_provenance(self, capsys):
        import json

        main(["rpl", "--n-a", "1", "--json"])
        record = json.loads(capsys.readouterr().out)
        totals = record["stats"]["verification"]
        assert totals["checks"] == (
            totals["verified"] + totals["cache_hit"] + totals["carried"]
        )

    def test_table2_json_records(self, capsys):
        import json

        code = main(
            ["table2", "--left", "1", "--right", "0", "--time-limit", "60",
             "--json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        records = json.loads(out)
        assert len(records) == 3
        scenarios = {r["spec"]["engine"]["scenario"] for r in records}
        assert scenarios == {"only-iso", "only-decomp", "complete"}


#: ``job_id``s of these command lines, pinned when every exploration
#: command moved onto one JobSpec path; they must never drift.
PINNED_JOB_IDS = [
    (["rpl", "--n-a", "1"], "0805bf4021423fd5"),
    (["epn", "--left", "1", "--right", "0"], "0d62c3f5b3fb0792"),
    (["wsn", "--tiers", "1"], "fdc0940d712683b9"),
    (
        ["table2", "--left", "1", "--right", "0", "--apu", "0"],
        ["8599f1d19676cd05", "d510d64d20043127", "a55d6789ddb4526b"],
    ),
]


class TestJobSpecPath:
    @pytest.mark.parametrize(
        "argv, job_id",
        PINNED_JOB_IDS,
        ids=[" ".join(argv) for argv, _ in PINNED_JOB_IDS],
    )
    def test_job_ids_are_pinned(self, capsys, argv, job_id):
        import json

        main(argv + ["--json"])
        record = json.loads(capsys.readouterr().out)
        if isinstance(record, list):
            assert [r["job_id"] for r in record] == job_id
        else:
            assert record["job_id"] == job_id

    @pytest.mark.parametrize(
        "case, flags",
        [
            ("rpl", ["--n-a", "1", "--deadline", "100"]),
            ("epn", ["--right", "0", "--deadline", "40"]),
            ("wsn", ["--sensors", "1", "--relays", "1", "--tiers", "1",
                     "--deadline", "90"]),
        ],
    )
    def test_submit_posts_the_one_shot_spec(
        self, capsys, monkeypatch, case, flags
    ):
        import json

        from repro.serve.client import ServeClient

        posted = []

        def fake_submit(self, spec, namespace="default", priority=0):
            posted.append(spec)
            return {"job_id": spec.job_id, "state": "queued"}

        monkeypatch.setattr(ServeClient, "submit", fake_submit)
        argv = [case, *flags, "--no-isomorphism", "--max-iterations", "500"]
        assert main(["submit", *argv]) == 0
        capsys.readouterr()
        main(argv + ["--json"])
        record = json.loads(capsys.readouterr().out)
        assert [spec.job_id for spec in posted] == [record["job_id"]]
        assert posted[0].to_dict() == record["spec"]

    def test_submit_rejects_another_cases_flags(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["submit", "rpl", "--left", "3"])
        assert exit_info.value.code == 2
        assert "--left" in capsys.readouterr().err

    def test_submit_flags_before_the_case_are_kept(self):
        args = build_parser().parse_args(
            ["submit", "--wait", "--server", "http://h:1", "rpl", "--json"]
        )
        assert args.wait and args.json
        assert args.server == "http://h:1"

    def test_topk_rpl_default_demand_is_the_one_shot_problem(self, capsys):
        import inspect
        import json

        from repro.casestudies import rpl
        from repro.cli import _spec_from_args

        def problem_args(argv):
            spec = _spec_from_args("rpl", build_parser().parse_args(argv))
            bound = inspect.signature(rpl.build_problem).bind(
                **spec.sizes, **spec.problem
            )
            bound.apply_defaults()
            return bound.arguments

        assert problem_args(["topk", "rpl"]) == problem_args(
            ["rpl", "--n-a", "1"]
        )
        # The cheapest of rpl(1,0)'s tied cost-26 designs is the one the
        # one-shot command selects.
        assert main(["topk", "rpl", "-k", "1"]) == 0
        top = capsys.readouterr().out
        main(["rpl", "--n-a", "1", "--json"])
        selected = json.loads(capsys.readouterr().out)["selected"]
        picks = ", ".join(f"{k}={v}" for k, v in sorted(selected.items()))
        assert top.strip() == f"#1: cost 26 [{picks}]"


class TestSweep:
    def test_serial_sweep_table(self, capsys):
        code = main(
            ["sweep", "--grid", "fig5-rpl", "--limit", "1", "--serial",
             "--max-iterations", "200"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rpl(n=1)" in out
        assert "oracle cache" in out

    def test_pooled_sweep_leaves_no_worker_behind(self, capsys):
        import multiprocessing

        before = {child.pid for child in multiprocessing.active_children()}
        code = main(
            ["sweep", "--grid", "fig5-rpl", "--limit", "1", "--workers", "1",
             "--no-cache", "--max-iterations", "200"]
        )
        assert code == 0
        assert "rpl(n=1)" in capsys.readouterr().out
        after = {child.pid for child in multiprocessing.active_children()}
        assert after <= before

    def test_serial_sweep_json_with_cache_and_telemetry(self, capsys, tmp_path):
        import json

        cache = str(tmp_path / "oracle.db")
        journal = str(tmp_path / "events.jsonl")
        argv = [
            "sweep", "--grid", "fig5-rpl", "--limit", "1", "--serial",
            "--cache", cache, "--telemetry", journal, "--json",
            "--max-iterations", "200",
        ]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert cold[0]["status"] == "optimal"
        assert warm[0]["cache"]["hits"] > 0
        assert warm[0]["cache"]["misses"] == 0
        from repro.runtime.telemetry import read_events

        ends = read_events(journal, event="job_end")
        assert len(ends) == 2
        assert ends[0]["job_id"] == ends[1]["job_id"]

    def test_resume_replays_ledger_without_rerunning(self, capsys, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        base = [
            "sweep", "--grid", "fig5-rpl", "--limit", "1", "--serial",
            "--max-iterations", "200",
        ]
        assert main(base + ["--telemetry", journal]) == 0
        capsys.readouterr()
        # --resume doubles as the telemetry sink: the second run appends
        # a sweep_resume marker, replays the finished job, runs nothing.
        assert main(base + ["--resume", journal]) == 0
        out = capsys.readouterr().out
        assert "1 replayed from ledger" in out
        from repro.runtime.telemetry import read_events

        events = read_events(journal)
        marker = max(
            i for i, e in enumerate(events) if e["event"] == "sweep_resume"
        )
        assert not [e for e in events[marker:] if e["event"] == "job_start"]

    def test_resume_flag_parses(self):
        args = build_parser().parse_args(
            ["sweep", "--grid", "fig5-rpl", "--resume", "ledger.jsonl"]
        )
        assert args.resume == "ledger.jsonl"
        assert args.max_rebuilds == 3


class TestTracing:
    def _phase_lines(self, out):
        # "  <name>  x.xxxs  (Nx)" rows from the phase table, reduced
        # to (name, calls) so wall-clock jitter cannot break the test.
        import re

        rows = []
        for line in out.splitlines():
            match = re.match(r"\s{2,}(\w+)\s+[\d.]+s\s+\((\d+)x\)", line)
            if match:
                rows.append((match.group(1), int(match.group(2))))
        return rows

    def test_trace_writes_parseable_jsonl(self, capsys, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        code = main(
            ["epn", "--left", "1", "--right", "0", "--trace", trace]
        )
        assert code == 0
        from repro.obs.analyze import load_trace

        loaded = load_trace(trace)
        assert [s["name"] for s in loaded.spans if s["parent"] is None] == ["run"]
        assert loaded.metrics is not None
        assert "wrote trace" in capsys.readouterr().err

    def test_trace_chrome_format(self, tmp_path):
        import json

        trace = str(tmp_path / "trace.json")
        code = main(
            ["rpl", "--n-a", "1", "--deadline", "100",
             "--trace", trace, "--trace-format", "chrome"]
        )
        assert code == 0
        document = json.loads((tmp_path / "trace.json").read_text())
        assert document["traceEvents"]
        assert all(e["ph"] == "X" for e in document["traceEvents"])

    def test_obs_command_renders_report(self, capsys, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        assert main(["epn", "--left", "1", "--right", "0",
                     "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["obs", trace]) == 0
        out = capsys.readouterr().out
        assert "Per-phase totals" in out
        assert "Per-iteration critical path" in out
        assert "Cache effectiveness" in out

    def test_obs_html_dashboard_from_traced_run(self, capsys, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        out = str(tmp_path / "dash.html")
        assert main(["epn", "--left", "1", "--right", "0",
                     "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["obs", trace, "--html", out]) == 0
        page = (tmp_path / "dash.html").read_text(encoding="utf-8")
        assert page.startswith("<!DOCTYPE html>")
        assert 'id="waterfall"' in page
        assert "https://" not in page  # self-contained, no CDN

    def test_obs_sweep_fleet_view(self, capsys, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        out = str(tmp_path / "fleet.html")
        assert main(
            ["sweep", "--grid", "fig5-rpl", "--limit", "1", "--serial",
             "--max-iterations", "200", "--telemetry", journal]
        ) == 0
        capsys.readouterr()
        assert main(["obs", "--sweep", journal, "--html", out]) == 0
        page = (tmp_path / "fleet.html").read_text(encoding="utf-8")
        assert 'id="sweep"' in page
        assert 'id="fleet-svg"' in page
        # Text fleet summary without --html.
        assert main(["obs", "--sweep", journal]) == 0
        assert "Sweep fleet" in capsys.readouterr().out

    def test_obs_diff_dispatch_and_exit_codes(self, capsys, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        assert main(["epn", "--left", "1", "--right", "0",
                     "--trace", trace]) == 0
        capsys.readouterr()
        # Self-diff: zero deltas, exit 0 even with a 0% threshold.
        assert main(["obs", "diff", trace, trace,
                     "--fail-on-regression", "0"]) == 0
        assert "0 regression(s)" in capsys.readouterr().out
        # --json emits machine-readable records.
        assert main(["obs", "diff", trace, trace, "--json"]) == 0
        import json as json_mod

        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["regressions"] == 0

    def test_obs_usage_errors(self, capsys, tmp_path):
        assert main(["obs"]) == 2
        assert "usage:" in capsys.readouterr().err
        assert main(["obs", "diff", "just-one"]) == 2
        assert "diff BASE OTHER" in capsys.readouterr().err
        assert main(["obs", "a.jsonl", "b.jsonl"]) == 2
        assert "one trace" in capsys.readouterr().err

    def test_profile_output_is_stable_under_tracing(self, capsys, tmp_path):
        # Golden check: the summary's phase table must list the same
        # phases with the same call counts whether or not --trace rides
        # along (--trace only adds a sink to the same phase spans).
        argv = ["epn", "--left", "1", "--right", "0"]
        assert main(argv) == 0
        plain = self._phase_lines(capsys.readouterr().out)
        trace = str(tmp_path / "trace.jsonl")
        assert main(argv + ["--trace", trace]) == 0
        traced = self._phase_lines(capsys.readouterr().out)
        assert plain
        # The table sorts by wall-clock, so near-equal tiny phases may
        # swap rows between runs: compare the (name, calls) multiset.
        assert sorted(traced) == sorted(plain)
