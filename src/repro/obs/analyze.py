"""Offline trace analysis: ``python -m repro obs TRACE``.

Reads a trace produced with ``--trace`` (either sink format — JSONL or
Chrome ``trace_event``) and computes the questions the ROADMAP's
performance work keeps asking:

* **per-phase totals** — where the run's wall-clock went, per phase
  span name (with p50/p95/p99 latency estimates from the
  ``<phase>_seconds`` histograms); equal to the run's
  ``stats.phase_profile`` totals, which are read from the same spans;
* **per-iteration critical path** — the MILP / refinement /
  certificate split per iteration, plus the share of the iteration not
  covered by any phase span;
* **top-k slowest queries** — individual SMT queries, refinement
  checks and embedding enumerations, with their (iteration, viewpoint,
  path) origin;
* **cache effectiveness** — oracle and embedding-cache hit ratios from
  the metrics snapshot;
* **verification reuse** — the carried-forward / cache-hit / verified
  split of dependency-sliced verification (``verify_*`` counters).

Every section is computed into a plain dataclass first
(:func:`analyze` returns the bundle as an :class:`Analysis`); the text
report here and the HTML dashboard (:mod:`repro.obs.dashboard`) are
two renderers over the same structures. Text renders through
:mod:`repro.reporting.tables` so trace reports look like every other
artifact of the repo.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import Histogram
from repro.reporting.tables import format_seconds, render_table
from repro.runtime.telemetry import TruncatedJournalWarning

#: Span names whose intervals are phase brackets (the ``kind="phase"``
#: spans opened by the exploration loop).
PHASE_NAMES = (
    "matrix_build",
    "milp_solve",
    "refinement",
    "embedding",
    "certificate_build",
)

#: Span names counted as individual "queries" for the top-k table.
QUERY_NAMES = ("refinement_check", "embedding")

#: Phases whose sum defines an iteration's accounted critical path.
_ITERATION_PHASES = ("milp_solve", "matrix_build", "refinement", "certificate_build")

#: Quantiles reported by the phase table and the dashboard tiles.
QUANTILES = (0.5, 0.95, 0.99)


class Trace:
    """A loaded trace: span records, metrics snapshot, meta header."""

    def __init__(
        self,
        spans: List[Dict[str, Any]],
        metrics: Optional[Dict[str, Any]] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.spans = spans
        self.metrics = metrics or {}
        self.meta = meta or {}
        self.by_id: Dict[str, Dict[str, Any]] = {s["id"]: s for s in spans}

    # -- tree helpers -------------------------------------------------------

    def children(self, span_id: Optional[str]) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s["parent"] == span_id]

    def ancestor(self, span: Dict[str, Any], name: str) -> Optional[Dict[str, Any]]:
        """The nearest ancestor span (self included) with ``name``."""
        node: Optional[Dict[str, Any]] = span
        while node is not None:
            if node["name"] == name:
                return node
            parent = node["parent"]
            node = self.by_id.get(parent) if parent else None
        return None

    def named(self, *names: str) -> List[Dict[str, Any]]:
        wanted = set(names)
        return [s for s in self.spans if s["name"] in wanted]

    @property
    def origin(self) -> float:
        """The earliest span start — time zero for relative rendering."""
        return min((s["start"] for s in self.spans), default=0.0)

    def histogram(self, name: str) -> Optional[Histogram]:
        """A named latency histogram rebuilt from the metrics snapshot."""
        data = (self.metrics or {}).get("histograms", {}).get(name)
        if not data:
            return None
        return Histogram.from_dict(data)


def load_trace(path: str, strict: bool = False) -> Trace:
    """Load either sink format, auto-detected from the file content.

    Like the run ledger, the JSONL reader tolerates the torn final line
    a killed run leaves behind: undecodable lines are skipped with a
    :class:`~repro.runtime.telemetry.TruncatedJournalWarning` unless
    ``strict=True`` restores the raising behavior. (A truncated Chrome
    document cannot be half-read — it is one JSON value — so ``strict``
    only affects JSONL traces.)
    """
    with open(path, "r", encoding="utf-8") as stream:
        first = stream.read(4096)
        stream.seek(0)
        if '"traceEvents"' in first:
            return _load_chrome(json.load(stream))
        return _load_jsonl(stream, strict=strict, path=path)


def _load_jsonl(stream: Any, strict: bool = False, path: str = "<stream>") -> Trace:
    spans: List[Dict[str, Any]] = []
    metrics: Optional[Dict[str, Any]] = None
    meta: Optional[Dict[str, Any]] = None
    for number, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if strict:
                raise
            warnings.warn(
                f"{path}:{number}: skipping undecodable trace line "
                f"(truncated by a crashed run?)",
                TruncatedJournalWarning,
                stacklevel=3,
            )
            continue
        kind = record.get("type")
        if kind == "span":
            spans.append(record)
        elif kind == "metrics":
            metrics = record.get("metrics")
        elif kind == "trace":
            meta = record
    return Trace(spans, metrics=metrics, meta=meta)


def _load_chrome(document: Dict[str, Any]) -> Trace:
    """Rebuild span records from Chrome complete events."""
    spans: List[Dict[str, Any]] = []
    for event in document.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        span_id = args.pop("id", None)
        parent = args.pop("parent", None)
        start = float(event.get("ts", 0.0)) / 1e6
        duration = float(event.get("dur", 0.0)) / 1e6
        spans.append(
            {
                "name": event.get("name", ""),
                "id": span_id,
                "parent": parent,
                "start": start,
                "end": start + duration,
                "duration": duration,
                "attrs": args,
                "pid": event.get("tid", 0),
            }
        )
    other = document.get("otherData", {})
    metrics = other.get("metrics")
    meta = {k: v for k, v in other.items() if k != "metrics"}
    return Trace(spans, metrics=metrics, meta=meta)


# -- structured results --------------------------------------------------------


@dataclass(frozen=True)
class RunSummary:
    """One ``run`` span's headline: status, wall clock, iterations."""

    status: str
    duration: float
    iterations: Any


@dataclass(frozen=True)
class PhaseStat:
    """One row of the per-phase table."""

    name: str
    seconds: float
    calls: int
    share: float  # fraction of the run wall-clock, 0..1
    p50: Optional[float] = None  # from the <name>_seconds histogram
    p95: Optional[float] = None
    p99: Optional[float] = None


@dataclass(frozen=True)
class IterationStat:
    """One iteration's critical-path split."""

    index: Any
    wall: float
    milp: float
    refinement: float
    certificates: float
    other: float
    cuts: Any


@dataclass(frozen=True)
class QueryStat:
    """One slow query with its origin."""

    name: str
    iteration: Any
    viewpoint: str
    path: str
    seconds: float

    @property
    def origin(self) -> str:
        if self.path:
            return f"{self.viewpoint} [{self.path}]"
        return self.viewpoint


@dataclass(frozen=True)
class CacheStat:
    """Hit/miss totals of one cache."""

    label: str
    hits: int
    misses: int

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0


@dataclass(frozen=True)
class VerificationStats:
    """Plan-entry provenance under dependency-sliced verification."""

    checks: int
    verified: int
    cache_hit: int
    carried: int

    @property
    def reused(self) -> int:
        return self.cache_hit + self.carried

    @property
    def reuse_rate(self) -> float:
        return self.reused / self.checks if self.checks else 0.0


@dataclass
class Analysis:
    """Everything the report and the dashboard need, precomputed."""

    trace: Trace
    runs: List[RunSummary] = field(default_factory=list)
    phases: List[PhaseStat] = field(default_factory=list)
    iterations: List[IterationStat] = field(default_factory=list)
    queries: List[QueryStat] = field(default_factory=list)
    caches: List[CacheStat] = field(default_factory=list)
    verification: Optional[VerificationStats] = None


def phase_totals(trace: Trace) -> Dict[str, Tuple[float, int]]:
    """Per-phase (total seconds, call count), like ``stats.phase_profile``."""
    totals: Dict[str, Tuple[float, int]] = {}
    for span in trace.spans:
        if span["name"] in PHASE_NAMES:
            seconds, calls = totals.get(span["name"], (0.0, 0))
            totals[span["name"]] = (seconds + span["duration"], calls + 1)
    return totals


def phase_stats(trace: Trace) -> List[PhaseStat]:
    """Phase rows sorted by total time, with histogram quantiles."""
    totals = phase_totals(trace)
    run_time = sum(s["duration"] for s in trace.named("run")) or sum(
        seconds for seconds, _ in totals.values()
    )
    stats = []
    for name, (seconds, calls) in sorted(totals.items(), key=lambda kv: -kv[1][0]):
        histogram = trace.histogram(f"{name}_seconds")
        quantiles = histogram.quantiles(QUANTILES) if histogram else {}
        stats.append(
            PhaseStat(
                name,
                seconds,
                calls,
                seconds / run_time if run_time else 0.0,
                p50=quantiles.get(0.5),
                p95=quantiles.get(0.95),
                p99=quantiles.get(0.99),
            )
        )
    return stats


def iteration_stats(trace: Trace) -> List[IterationStat]:
    iterations = sorted(
        trace.named("iteration"), key=lambda s: s["attrs"].get("index", 0)
    )
    stats = []
    for iteration in iterations:
        phases: Dict[str, float] = {}
        for child in trace.children(iteration["id"]):
            if child["name"] in PHASE_NAMES:
                phases[child["name"]] = (
                    phases.get(child["name"], 0.0) + child["duration"]
                )
        accounted = sum(phases.get(name, 0.0) for name in _ITERATION_PHASES)
        stats.append(
            IterationStat(
                iteration["attrs"].get("index", "?"),
                iteration["duration"],
                phases.get("milp_solve", 0.0),
                phases.get("refinement", 0.0),
                phases.get("certificate_build", 0.0),
                max(iteration["duration"] - accounted, 0.0),
                iteration["attrs"].get("cuts_added", "-"),
            )
        )
    return stats


def query_stats(trace: Trace, top: int = 10) -> List[QueryStat]:
    queries = trace.named(*QUERY_NAMES)
    queries.sort(key=lambda s: -s["duration"])
    stats = []
    for span in queries[:top]:
        iteration = trace.ancestor(span, "iteration")
        attrs = span["attrs"]
        stats.append(
            QueryStat(
                span["name"],
                iteration["attrs"].get("index", "-") if iteration else "-",
                str(attrs.get("viewpoint", "-")),
                str(attrs.get("path", "") or ""),
                span["duration"],
            )
        )
    return stats


def cache_stats(trace: Trace) -> List[CacheStat]:
    counters = (trace.metrics or {}).get("counters", {})
    pairs = [
        ("oracle", "oracle_hits", "oracle_misses"),
        ("embedding cache", "embedding_cache_hits", "embedding_cache_misses"),
    ]
    stats = []
    for label, hit_key, miss_key in pairs:
        stat = CacheStat(label, counters.get(hit_key, 0), counters.get(miss_key, 0))
        if stat.total:
            stats.append(stat)
    return stats


def verification_stats(trace: Trace) -> Optional[VerificationStats]:
    counters = (trace.metrics or {}).get("counters", {})
    checks = counters.get("verify_checks", 0)
    if not checks:
        return None
    return VerificationStats(
        checks,
        counters.get("verify_verified", 0),
        counters.get("verify_cache_hit", 0),
        counters.get("verify_carried", 0),
    )


def run_summaries(trace: Trace) -> List[RunSummary]:
    return [
        RunSummary(
            str(r["attrs"].get("status", "?")),
            r["duration"],
            r["attrs"].get("iterations", "?"),
        )
        for r in trace.named("run")
    ]


def analyze(trace: Trace, top: int = 10) -> Analysis:
    """Compute every section once; renderers consume the bundle."""
    return Analysis(
        trace=trace,
        runs=run_summaries(trace),
        phases=phase_stats(trace),
        iterations=iteration_stats(trace),
        queries=query_stats(trace, top=top),
        caches=cache_stats(trace),
        verification=verification_stats(trace),
    )


# -- report sections -----------------------------------------------------------


def format_quantile(value: Optional[float]) -> str:
    """Histogram quantile cell: '-' without one, '>60' past the buckets."""
    if value is None:
        return "-"
    if value == float("inf"):
        return ">60"
    return format_seconds(value)


def _phase_table(analysis: Analysis) -> str:
    if not analysis.phases:
        return "no phase spans recorded (run with --trace on an exploration)"
    rows = [
        [
            stat.name,
            format_seconds(stat.seconds),
            stat.calls,
            f"{100.0 * stat.share:.1f}%" if stat.share else "-",
            format_quantile(stat.p50),
            format_quantile(stat.p95),
            format_quantile(stat.p99),
        ]
        for stat in analysis.phases
    ]
    return render_table(
        ["phase", "total(s)", "calls", "share", "p50", "p95", "p99"],
        rows,
        title="Per-phase totals",
    )


def _iteration_table(analysis: Analysis) -> str:
    if not analysis.iterations:
        return "no iteration spans recorded"
    rows = [
        [
            it.index,
            format_seconds(it.wall),
            format_seconds(it.milp),
            format_seconds(it.refinement),
            format_seconds(it.certificates),
            format_seconds(it.other),
            it.cuts,
        ]
        for it in analysis.iterations
    ]
    return render_table(
        ["iter", "wall(s)", "milp", "refinement", "certificates", "other", "cuts"],
        rows,
        title="Per-iteration critical path",
    )


def _slowest_table(analysis: Analysis) -> str:
    if not analysis.queries:
        return "no query spans recorded"
    rows = [
        [
            q.name,
            q.iteration,
            q.origin,
            format_seconds(q.seconds),
        ]
        for q in analysis.queries
    ]
    return render_table(
        ["span", "iter", "origin (viewpoint [path])", "time(s)"],
        rows,
        title=f"Top {len(analysis.queries)} slowest queries",
    )


def _cache_table(analysis: Analysis) -> str:
    if not analysis.caches:
        return "no cache counters recorded"
    rows = [
        [c.label, c.hits, c.misses, f"{100.0 * c.hit_rate:.1f}%"]
        for c in analysis.caches
    ]
    return render_table(
        ["cache", "hits", "misses", "hit rate"], rows, title="Cache effectiveness"
    )


def _verification_table(analysis: Analysis) -> str:
    stats = analysis.verification
    if stats is None:
        return "no verification-reuse counters (no refinement checks traced)"
    rows: List[List[Any]] = []
    for label, count in (
        ("verified (solver)", stats.verified),
        ("cache hit", stats.cache_hit),
        ("carried forward", stats.carried),
    ):
        rows.append([label, count, f"{100.0 * count / stats.checks:.1f}%"])
    rows.append(
        ["reused (either)", stats.reused, f"{100.0 * stats.reuse_rate:.1f}%"]
    )
    return render_table(
        ["provenance", "checks", f"of {stats.checks} planned"],
        rows,
        title="Verification reuse",
    )


def render_report(trace: Trace, top: int = 10) -> str:
    """The full offline report, section by section."""
    analysis = analyze(trace, top=top)
    header = []
    if trace.meta.get("trace_id"):
        header.append(f"trace:  {trace.meta['trace_id']}")
    header.append(f"spans:  {len(trace.spans)} ({len(analysis.runs)} run(s))")
    if analysis.runs:
        header.append(
            "runs:   "
            + "; ".join(
                f"{r.status} in {format_seconds(r.duration)}s, "
                f"{r.iterations} iterations"
                for r in analysis.runs
            )
        )
    sections = [
        "\n".join(header),
        _phase_table(analysis),
        _iteration_table(analysis),
        _slowest_table(analysis),
        _cache_table(analysis),
        _verification_table(analysis),
    ]
    return "\n\n".join(sections)


def main(path: str, top: int = 10) -> int:
    """CLI entry point for ``python -m repro obs``."""
    import sys

    try:
        trace = load_trace(path)
    except FileNotFoundError:
        print(f"error: no trace file at {path}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError) as exc:
        print(f"error: {path} is not a readable trace: {exc}", file=sys.stderr)
        return 2
    try:
        print(render_report(trace, top=top))
    except BrokenPipeError:
        # Reports get piped to head/less; a closed pipe is not an error.
        # Point stdout at devnull so interpreter shutdown does not trip
        # over the dead pipe again.
        import os
        import sys

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0
