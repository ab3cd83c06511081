"""Zero-dependency observability: run-scoped tracing and metrics.

The exploration stack spans three layers (MILP candidate selection,
refinement checking, certificate generation); this package gives them
**one** instrumentation substrate:

* :class:`Tracer` — hierarchical spans (``run -> iteration -> phase ->
  query/task``) with deterministic structural ids and pluggable sinks
  (:class:`InMemorySink`, :class:`JsonlSink`, :class:`ChromeTraceSink`
  — the latter loads in ``chrome://tracing`` / Perfetto);
* :class:`Metrics` — counters, gauges and fixed-bucket latency
  histograms behind one snapshot API;
* :mod:`repro.obs.analyze` — the ``python -m repro obs`` offline
  report (top-k slowest queries, per-iteration critical path, cache
  effectiveness), computed into structured
  dataclasses (:func:`repro.obs.analyze.analyze`);
* :mod:`repro.obs.dashboard` — the same analysis rendered as a
  self-contained, deterministic HTML dashboard (``--html``), plus the
  sweep fleet view over a telemetry journal (``--sweep``);
* :mod:`repro.obs.diff` — trace/benchmark regression diffing
  (``obs diff BASE OTHER [--fail-on-regression PCT]``).

The dashboard and diff modules are imported lazily by the CLI — this
package's eager surface stays limited to tracing and metrics.

Every exploration runs under a :class:`Tracer`: its phase spans are
the only timer behind ``stats``, ``phase_profile`` included. Without a
bound tracer the engine uses a sink-less one; ``--trace PATH
[--trace-format {jsonl,chrome}]`` on the
``rpl``/``epn``/``wsn``/``table2`` commands, or
``ContrArcExplorer(..., tracer=Tracer(...))``, adds sinks that record
the spans and the metrics snapshot.
"""

from repro.obs.metrics import LATENCY_BUCKETS, Histogram, Metrics
from repro.obs.trace import (
    ChromeTraceSink,
    InMemorySink,
    JsonlSink,
    Span,
    Tracer,
    span_id_for,
)

__all__ = [
    "LATENCY_BUCKETS",
    "Histogram",
    "Metrics",
    "ChromeTraceSink",
    "InMemorySink",
    "JsonlSink",
    "Span",
    "Tracer",
    "span_id_for",
]
