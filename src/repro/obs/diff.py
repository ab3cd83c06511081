"""Trace regression diffing: ``python -m repro obs diff BASE OTHER``.

Compares two ``--trace`` files of the same workload (JSONL or Chrome,
mixed freely) phase-by-phase and counter-by-counter, and renders a
signed-delta table. With ``--fail-on-regression PCT`` it exits non-zero
when any **time-like** metric grew by more than PCT percent, which is
what the CI perf gate runs: a dashboard artifact plus a self-diff that
must be all zeros.

Gating semantics:

* only time-like metrics gate (phase seconds, run wall clock,
  latency histogram quantiles) — counters and cache totals are
  informational, because "more oracle hits" is not a regression;
* percent change is computed only when the base value is nonzero;
  metrics that appear or disappear are reported but never gate, since
  a feature flag flipping a counter on is not a slowdown;
* exit codes: 0 clean (or regressions within threshold), 1 regression
  past the threshold, 2 unreadable input (including a JSON file that is
  not a trace) — the same 2-for-errors the other ``obs`` entry points
  use. Benchmark results are compared by
  ``benchmarks/harness/agreement.py``, not here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.analyze import PHASE_NAMES, Trace, load_trace
from repro.reporting.tables import format_signed, render_table

#: Leaf-name suffixes that mark a flattened metric as time-like.
_TIME_SUFFIXES = ("_seconds", "_time", "wall_clock", "wall", "duration")


@dataclass(frozen=True)
class DiffEntry:
    """One metric's comparison between the base and other run."""

    metric: str
    base: Optional[float]
    other: Optional[float]
    time_like: bool

    @property
    def delta(self) -> Optional[float]:
        if self.base is None or self.other is None:
            return None
        return self.other - self.base

    @property
    def pct(self) -> Optional[float]:
        """Signed percent change, None when the base is 0 or absent."""
        if self.base is None or self.other is None or not self.base:
            return None
        return 100.0 * (self.other - self.base) / self.base

    def regresses(self, threshold_pct: float) -> bool:
        """True when this entry alone trips the perf gate."""
        return (
            self.time_like
            and self.pct is not None
            and self.pct > threshold_pct
        )


def trace_metrics(trace: Trace) -> Dict[str, float]:
    """Flatten a trace into comparable ``{metric: value}`` scalars."""
    metrics: Dict[str, float] = {}
    for run in trace.named("run"):
        metrics["run.wall_seconds"] = (
            metrics.get("run.wall_seconds", 0.0) + run["duration"]
        )
        iterations = run["attrs"].get("iterations")
        if isinstance(iterations, (int, float)):
            metrics["run.iterations"] = (
                metrics.get("run.iterations", 0.0) + float(iterations)
            )
    totals: Dict[str, Tuple[float, int]] = {}
    for span in trace.spans:
        if span["name"] in PHASE_NAMES:
            seconds, calls = totals.get(span["name"], (0.0, 0))
            totals[span["name"]] = (seconds + span["duration"], calls + 1)
    for name, (seconds, calls) in totals.items():
        metrics[f"phase.{name}.total_seconds"] = seconds
        metrics[f"phase.{name}.calls"] = float(calls)
    for name, value in (trace.metrics or {}).get("counters", {}).items():
        metrics[f"counter.{name}"] = float(value)
    for name in (trace.metrics or {}).get("histograms", {}):
        histogram = trace.histogram(name)
        if histogram is None or not histogram.count:
            continue
        p95 = histogram.quantile(0.95)
        if p95 != float("inf"):
            metrics[f"hist.{name}.p95"] = p95
        metrics[f"hist.{name}.mean"] = histogram.mean
    return metrics


def _is_time_like(metric: str) -> bool:
    if metric.startswith(("counter.", "hist.")):
        # hist.*.p95 / .mean ARE time-like for latency histograms.
        return metric.startswith("hist.") and metric.endswith((".p95", ".mean"))
    if metric.startswith("phase."):
        return not metric.endswith(".calls")
    return metric.rsplit(".", 1)[-1].endswith(_TIME_SUFFIXES)


def load_metrics(path: str) -> Dict[str, float]:
    """Load a JSONL or Chrome trace's metrics.

    A file whose whole body parses as one JSON value must be a Chrome
    trace or a one-line JSONL trace header; any other JSON document
    raises :class:`ValueError`.
    """
    with open(path, "r", encoding="utf-8") as stream:
        body = stream.read()
    try:
        document = json.loads(body)
    except json.JSONDecodeError:
        return trace_metrics(load_trace(path))
    if isinstance(document, dict) and (
        "traceEvents" in document or document.get("type") == "trace"
    ):
        return trace_metrics(load_trace(path))
    raise ValueError(f"{path}: not a trace")


def diff_metrics(
    base: Dict[str, float], other: Dict[str, float]
) -> List[DiffEntry]:
    """All metrics of either side, union-keyed, in sorted name order."""
    return [
        DiffEntry(name, base.get(name), other.get(name), _is_time_like(name))
        for name in sorted(set(base) | set(other))
    ]


def regressions(
    entries: List[DiffEntry], threshold_pct: float
) -> List[DiffEntry]:
    return [entry for entry in entries if entry.regresses(threshold_pct)]


def render_diff(
    entries: List[DiffEntry],
    base_label: str = "base",
    other_label: str = "other",
    threshold_pct: Optional[float] = None,
) -> str:
    """The signed-delta table plus a one-line verdict footer."""
    rows: List[List[Any]] = []
    for entry in entries:
        if entry.delta is not None:
            delta = format_signed(entry.delta)
            pct = (
                format_signed(entry.pct, unit="%", nd=1)
                if entry.pct is not None
                else "-"
            )
        elif entry.base is None:
            delta, pct = "added", "-"
        else:
            delta, pct = "removed", "-"
        flag = ""
        if threshold_pct is not None and entry.regresses(threshold_pct):
            flag = "REGRESSION"
        elif entry.time_like and entry.delta is not None and entry.delta < 0:
            flag = "improved" if entry.pct is not None and entry.pct < -1.0 else ""
        rows.append(
            [
                entry.metric,
                f"{entry.base:g}" if entry.base is not None else "-",
                f"{entry.other:g}" if entry.other is not None else "-",
                delta,
                pct,
                flag,
            ]
        )
    table = render_table(
        ["metric", base_label, other_label, "delta", "pct", ""],
        rows,
        title="Trace diff",
    )
    changed = sum(1 for e in entries if e.delta)
    if threshold_pct is not None:
        tripped = len(regressions(entries, threshold_pct))
        verdict = (
            f"{tripped} regression(s) past {threshold_pct:g}% "
            f"across {len(entries)} metric(s), {changed} changed"
        )
    else:
        verdict = f"{len(entries)} metric(s), {changed} changed"
    return f"{table}\n{verdict}"


def diff_to_dict(
    entries: List[DiffEntry], threshold_pct: Optional[float] = None
) -> Dict[str, Any]:
    """JSON shape for ``--json``: stable key order, explicit verdict."""
    return {
        "metrics": [
            {
                "metric": entry.metric,
                "base": entry.base,
                "other": entry.other,
                "delta": entry.delta,
                "pct": entry.pct,
                "time_like": entry.time_like,
                "regression": (
                    entry.regresses(threshold_pct)
                    if threshold_pct is not None
                    else False
                ),
            }
            for entry in entries
        ],
        "threshold_pct": threshold_pct,
        "regressions": (
            len(regressions(entries, threshold_pct))
            if threshold_pct is not None
            else 0
        ),
    }


def main(
    base_path: str,
    other_path: str,
    as_json: bool = False,
    fail_on_regression: Optional[float] = None,
) -> int:
    """CLI entry point for ``python -m repro obs diff``."""
    import sys

    try:
        base = load_metrics(base_path)
        other = load_metrics(other_path)
    except FileNotFoundError as exc:
        print(f"error: {exc.filename}: no such file", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: unreadable input: {exc}", file=sys.stderr)
        return 2
    entries = diff_metrics(base, other)
    try:
        if as_json:
            print(json.dumps(diff_to_dict(entries, fail_on_regression), indent=2))
        else:
            print(
                render_diff(
                    entries,
                    base_label=base_path.rsplit("/", 1)[-1][:24] or "base",
                    other_label=other_path.rsplit("/", 1)[-1][:24] or "other",
                    threshold_pct=fail_on_regression,
                )
            )
    except BrokenPipeError:
        # Diff tables get piped to head/grep; a closed pipe is not an
        # error, and the verdict below still decides the exit code.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if fail_on_regression is not None and regressions(entries, fail_on_regression):
        return 1
    return 0
