"""Metrics registry: buckets, snapshots."""

import pytest

from repro.obs import LATENCY_BUCKETS, Histogram, Metrics


class TestHistogram:
    def test_bucketing_boundaries(self):
        h = Histogram(bounds=(1.0, 2.0))
        h.observe(0.5)  # <= 1.0
        h.observe(1.0)  # <= 1.0 (boundary lands in its bucket)
        h.observe(1.5)  # <= 2.0
        h.observe(99.0)  # overflow
        assert h.counts == [2, 1, 1]
        assert h.count == 4
        assert h.total == pytest.approx(102.0)

    def test_mean(self):
        h = Histogram()
        assert h.mean == 0.0
        h.observe(1.0)
        h.observe(3.0)
        assert h.mean == pytest.approx(2.0)

    def test_quantile_upper_bound_semantics(self):
        h = Histogram(bounds=(0.1, 1.0, 10.0))
        for _ in range(9):
            h.observe(0.05)
        h.observe(5.0)
        assert h.quantile(0.5) == 0.1
        assert h.quantile(0.99) == 10.0


class TestMetrics:
    def test_counters_and_gauges(self):
        m = Metrics()
        assert m.counter("x") == 1
        assert m.counter("x", 4) == 5
        m.gauge("g", 2)
        m.gauge("g", 7.5)
        snap = m.snapshot()
        assert snap["counters"] == {"x": 5}
        assert snap["gauges"] == {"g": 7.5}

    def test_observe_creates_histogram_with_default_buckets(self):
        m = Metrics()
        m.observe("lat", 0.002)
        snap = m.snapshot()
        assert snap["histograms"]["lat"]["count"] == 1
        assert tuple(snap["histograms"]["lat"]["bounds"]) == LATENCY_BUCKETS

    def test_snapshot_is_json_compatible(self):
        import json

        m = Metrics()
        m.counter("a")
        m.gauge("b", 1.5)
        m.observe("c", 0.1)
        json.dumps(m.snapshot())  # must not raise


class TestQuantileHelpers:
    def test_quantiles_default_triple(self):
        h = Histogram()
        for value in (0.05, 0.08, 0.09, 2.0):
            h.observe(value)
        qs = h.quantiles()
        assert set(qs) == {0.5, 0.95, 0.99}
        assert qs[0.5] == 0.1
        assert qs[0.95] == 2.5

    def test_from_dict_round_trip(self):
        h = Histogram()
        for value in (0.003, 0.4, 75.0):
            h.observe(value)
        rebuilt = Histogram.from_dict(h.to_dict())
        assert rebuilt.counts == h.counts
        assert rebuilt.count == 3
        assert rebuilt.mean == h.mean
        assert rebuilt.quantile(0.99) == float("inf")  # 75s overflowed

    def test_from_dict_rejects_mismatched_counts(self):
        import pytest

        data = Histogram().to_dict()
        data["counts"] = data["counts"][:-1]
        with pytest.raises(ValueError):
            Histogram.from_dict(data)
