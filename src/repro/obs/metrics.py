"""Run-scoped metrics registry: counters, gauges, latency histograms.

One :class:`Metrics` instance lives per run (owned by a
:class:`repro.obs.trace.Tracer`) and holds every timer and counter of
the exploration stack: the ``<phase>_seconds`` histograms fed by phase
spans, and the event counters (``oracle_*``, ``verify_*``,
``embedding_cache_*``) the engine records, behind one
:meth:`Metrics.snapshot` API. ``stats.phase_profile`` is a run's delta
of this registry.

Design constraints:

* **zero dependencies** — plain dicts and lists, JSON-compatible
  snapshots;
* **fixed histogram buckets** — latency histograms share one boundary
  vector (:data:`LATENCY_BUCKETS`), so snapshots from different runs
  are positionally comparable.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Sequence, Tuple

#: Fixed bucket upper bounds (seconds) for solve/query latency
#: histograms. Spans from 0.1ms to 1min; an implicit +inf overflow
#: bucket catches the rest. Fixed boundaries keep snapshots comparable.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)


class Histogram:
    """Fixed-boundary histogram with sum/count for mean derivation."""

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Sequence[float] = LATENCY_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        #: One slot per bound plus the +inf overflow slot.
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation (value <= bound lands in that bucket)."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: upper bound of the covering bucket.

        Observations that landed in the +inf overflow slot report
        ``float("inf")`` — the histogram only knows they exceeded the
        last bound.
        """
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for i, bucket in enumerate(self.counts):
            seen += bucket
            if seen >= target and bucket:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")

    def quantiles(
        self, qs: Sequence[float] = (0.5, 0.95, 0.99)
    ) -> Dict[float, float]:
        """p50/p95/p99 (by default) in one call, for report tables."""
        return {q: self.quantile(q) for q in qs}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Histogram":
        """Rebuild a histogram from its :meth:`to_dict` snapshot.

        This is how offline consumers (the trace analyzer, the
        dashboard) get :meth:`quantile` estimates back out of a
        serialized metrics snapshot.
        """
        histogram = cls(tuple(data["bounds"]))
        counts = [int(c) for c in data["counts"]]
        if len(counts) != len(histogram.counts):
            raise ValueError("histogram snapshot has mismatched bucket count")
        histogram.counts = counts
        histogram.total = float(data["sum"])
        histogram.count = int(data["count"])
        return histogram

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, mean={self.mean:.4g}s)"


class Metrics:
    """Registry of named counters, gauges and histograms.

    Names are free-form dotted/underscored strings; the conventions used
    by the exploration stack are documented in ``docs/observability.md``
    (``oracle_hits``, ``verify_checks``, ``<phase>_seconds``, ...).
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str, increment: int = 1) -> int:
        """Bump a monotone counter; returns the new value."""
        value = self.counters.get(name, 0) + increment
        self.counters[name] = value
        return value

    def gauge(self, name: str, value: float) -> None:
        """Set a last-value-wins gauge."""
        self.gauges[name] = float(value)

    def observe(
        self, name: str, value: float, bounds: Sequence[float] = LATENCY_BUCKETS
    ) -> None:
        """Record a value into the named histogram (created on first use)."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(bounds)
        histogram.observe(value)

    def total(self, name: str) -> float:
        """Sum of the named histogram's observations (0.0 before any)."""
        histogram = self.histograms.get(name)
        return histogram.total if histogram is not None else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-compatible snapshot of everything recorded so far."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in self.histograms.items()
            },
        }

    def __repr__(self) -> str:
        return (
            f"Metrics(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)}, histograms={len(self.histograms)})"
        )
