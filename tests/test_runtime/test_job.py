"""JobSpec / JobResult model tests."""

import pytest

from repro.exceptions import ExplorationError
from repro.explore.engine import ExplorationStatus
from repro.runtime.job import JobResult, JobSpec


class TestJobSpec:
    def test_id_deterministic_and_label_free(self):
        a = JobSpec("epn", sizes={"left": 1, "right": 1}, label="first")
        b = JobSpec("epn", sizes={"left": 1, "right": 1}, label="second")
        assert a.job_id == b.job_id  # labels are display-only

    def test_id_sensitive_to_content(self):
        base = JobSpec("epn", sizes={"left": 1})
        assert base.job_id != JobSpec("epn", sizes={"left": 2}).job_id
        assert base.job_id != JobSpec("rpl", sizes={"n_a": 1}).job_id
        assert (
            base.job_id
            != JobSpec(
                "epn", sizes={"left": 1}, engine={"use_isomorphism": False}
            ).job_id
        )

    def test_dict_roundtrip(self):
        spec = JobSpec(
            "wsn",
            sizes={"num_sensors": 2, "num_relays": 2, "tiers": 1},
            problem={"deadline": 25.0},
            engine={"scenario": "complete", "max_iterations": 50},
        )
        clone = JobSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert clone.job_id == spec.job_id

    def test_rejects_unknown_case_and_sizes(self):
        with pytest.raises(ExplorationError):
            JobSpec("satellite")
        with pytest.raises(ExplorationError):
            JobSpec("rpl", sizes={"left": 1})

    def test_scenario_expansion(self):
        spec = JobSpec("epn", sizes={"left": 1}, engine={"scenario": "only-iso"})
        kwargs = spec.engine_kwargs()
        assert kwargs["use_isomorphism"] is True
        assert kwargs["use_decomposition"] is False
        assert "scenario" not in kwargs

    def test_unknown_scenario_rejected(self):
        spec = JobSpec("epn", sizes={"left": 1}, engine={"scenario": "nope"})
        with pytest.raises(ExplorationError):
            spec.engine_kwargs()

    def test_make_explorer_runs(self):
        spec = JobSpec(
            "rpl",
            sizes={"n_a": 1, "n_b": 0},
            engine={"scenario": "complete", "max_iterations": 100},
        )
        result = spec.make_explorer().explore()
        assert result.status is ExplorationStatus.OPTIMAL


class TestJobResult:
    def test_from_exploration_and_roundtrip(self):
        spec = JobSpec("rpl", sizes={"n_a": 1, "n_b": 0})
        exploration = spec.make_explorer().explore()
        result = JobResult.from_exploration(spec, exploration, duration=1.25)
        assert result.ok
        assert result.cost == exploration.cost
        assert result.stats["num_iterations"] == exploration.stats.num_iterations
        assert result.selected  # implementation picks, by name
        clone = JobResult.from_dict(result.to_dict())
        assert clone.to_dict() == result.to_dict()

    def test_error_record(self):
        spec = JobSpec("rpl", sizes={"n_a": 1})
        result = JobResult(spec.job_id, spec, "error", error="boom", attempts=2)
        assert not result.ok
        assert JobResult.from_dict(result.to_dict()).error == "boom"


class TestEngineOverrides:
    def test_time_limit_override_does_not_enter_job_id(self):
        spec = JobSpec("epn", sizes={"left": 1}, engine={"time_limit": 50.0})
        baseline = spec.job_id
        explorer = spec.make_explorer(time_limit=5.0)
        assert explorer.time_limit == 5.0
        assert spec.engine == {"time_limit": 50.0}  # spec untouched
        assert spec.job_id == baseline

    def test_spec_time_limit_kept_without_override(self):
        spec = JobSpec("epn", sizes={"left": 1}, engine={"time_limit": 50.0})
        assert spec.make_explorer().time_limit == 50.0

    def test_engine_levers_flow_through_by_default(self):
        spec = JobSpec(
            "epn", sizes={"left": 1}, engine={"widen_implementations": False}
        )
        assert spec.make_explorer().widen_implementations is False

    def test_engine_levers_distinguish_job_ids(self):
        base = JobSpec("epn", sizes={"left": 1})
        tuned = JobSpec(
            "epn", sizes={"left": 1}, engine={"widen_implementations": False}
        )
        assert base.job_id != tuned.job_id


class TestEngineKeyValidation:
    def test_misspelled_key_rejected_naming_it(self):
        with pytest.raises(ExplorationError, match="wrokers"):
            JobSpec("epn", engine={"wrokers": 2})

    @pytest.mark.parametrize(
        "key",
        [
            "workers",
            "portfolio",
            "portfolio_state",
            "matcher",
            "max_embeddings",
            "multicut",
            "incremental_verify",
            "check_assumptions",
            "incremental",
            "profile",
        ],
    )
    def test_retired_keys_rejected(self, key):
        with pytest.raises(ExplorationError, match=key):
            JobSpec.from_dict({"case": "rpl", "engine": {key: 2}})

    @pytest.mark.parametrize("value", ["native", "gurobi", None])
    def test_backend_other_than_scipy_rejected_naming_it(self, value):
        with pytest.raises(ExplorationError, match="'backend'"):
            JobSpec("rpl", engine={"backend": value})

    def test_scipy_backend_keeps_its_job_id(self):
        spec = JobSpec(
            "rpl",
            sizes={"n_a": 1, "n_b": 0},
            engine={"backend": "scipy", "max_iterations": 200},
        )
        assert spec.engine["backend"] == "scipy"
        assert spec.job_id == "1162622827e8bf3b"

    @pytest.mark.parametrize("key", ["oracle", "tracer", "mapping_template"])
    def test_keys_the_job_supplies_itself_rejected(self, key):
        with pytest.raises(ExplorationError, match=key):
            JobSpec("rpl", engine={key: None})

    def test_scenario_and_explorer_keywords_accepted(self):
        spec = JobSpec(
            "rpl",
            sizes={"n_a": 1, "n_b": 0},
            engine={
                "scenario": "only-iso",
                "backend": "scipy",
                "max_iterations": 100,
                "widen_implementations": False,
            },
        )
        explorer = spec.make_explorer()
        assert "backend" not in spec.engine_kwargs()
        assert explorer.use_decomposition is False
        assert explorer.widen_implementations is False
