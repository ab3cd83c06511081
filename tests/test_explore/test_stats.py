"""Tests for exploration statistics bookkeeping."""

from repro.explore.stats import ExplorationStats, IterationRecord


class TestIterationRecord:
    def test_total_time(self):
        record = IterationRecord(
            1, milp_time=0.5, refinement_time=0.25, certificate_time=0.25
        )
        assert record.total_time == 1.0

    def test_repr_verdicts(self):
        accepted = IterationRecord(1)
        rejected = IterationRecord(2, violated_viewpoint="timing")
        assert "accepted" in repr(accepted)
        assert "timing" in repr(rejected)


class TestExplorationStats:
    def _stats(self):
        stats = ExplorationStats()
        stats.record(
            IterationRecord(
                1,
                milp_time=1.0,
                refinement_time=0.5,
                certificate_time=0.1,
                violated_viewpoint="timing",
                cuts_added=3,
            )
        )
        stats.record(IterationRecord(2, milp_time=2.0, refinement_time=0.5))
        return stats

    def test_aggregates(self):
        stats = self._stats()
        assert stats.num_iterations == 2
        assert stats.milp_time == 3.0
        assert stats.refinement_time == 1.0
        assert stats.certificate_time == 0.1
        assert stats.total_cuts == 3

    def test_repr(self):
        stats = self._stats()
        stats.total_time = 3.6
        assert "iterations=2" in repr(stats)


class TestSerialization:
    def _stats(self):
        stats = ExplorationStats()
        stats.record(
            IterationRecord(
                1,
                milp_time=1.0,
                refinement_time=0.5,
                certificate_time=0.1,
                candidate_cost=12.0,
                violated_viewpoint="timing",
                cuts_added=3,
            )
        )
        stats.record(IterationRecord(2, milp_time=2.0, refinement_time=0.5))
        stats.total_time = 4.2
        stats.milp_variables = 10
        stats.milp_constraints = 20
        return stats

    def test_to_dict_materializes_aggregates(self):
        data = self._stats().to_dict()
        assert data["num_iterations"] == 2
        assert data["total_time"] == 4.2
        assert data["milp_time"] == 3.0
        assert data["refinement_time"] == 1.0
        assert data["certificate_time"] == 0.1
        assert data["total_cuts"] == 3
        assert len(data["iterations"]) == 2
        assert data["iterations"][0]["violated_viewpoint"] == "timing"
        assert data["iterations"][0]["total_time"] == 1.6

    def test_to_dict_is_json_compatible(self):
        import json

        json.dumps(self._stats().to_dict())

    def test_roundtrip(self):
        stats = self._stats()
        clone = ExplorationStats.from_dict(stats.to_dict())
        assert clone.num_iterations == stats.num_iterations
        assert clone.total_time == stats.total_time
        assert clone.milp_time == stats.milp_time
        assert clone.total_cuts == stats.total_cuts
        assert clone.milp_variables == 10
        assert clone.iterations[1].milp_time == 2.0


class TestViolationRecords:
    def test_violations_roundtrip(self):
        record = IterationRecord(
            3,
            violated_viewpoint="power",
            violations=[
                {"viewpoint": "power", "path": ["gen", "bus", "load"]},
                {"viewpoint": "timing", "path": None},
            ],
        )
        clone = IterationRecord.from_dict(record.to_dict())
        assert clone.violations == record.violations
        assert clone.to_dict()["violations"] == record.to_dict()["violations"]

    def test_violations_default_empty(self):
        record = IterationRecord(1)
        assert record.violations == []
        assert record.to_dict()["violations"] == []
        # Legacy rows without the field deserialize cleanly.
        legacy = IterationRecord.from_dict({"index": 1})
        assert legacy.violations == []

    def test_engine_records_every_violated_pair(self):
        from repro.casestudies import epn
        from repro.explore.engine import ContrArcExplorer

        result = ContrArcExplorer(*epn.build_problem(1, 0, 0)).explore()
        rejected = [r for r in result.stats.iterations if r.violations]
        assert rejected, "expected at least one rejected candidate"
        for record in rejected:
            # Back-compat: the scalar field is the first entry's viewpoint.
            assert record.violated_viewpoint == record.violations[0]["viewpoint"]
            for entry in record.violations:
                assert set(entry) == {"viewpoint", "path"}
        # The EPN first candidate violates both viewpoints on the same
        # path; the old single-violation field under-reported this.
        assert any(len(r.violations) > 1 for r in rejected)
        # The accepted final iteration records none.
        assert result.stats.iterations[-1].violations == []
