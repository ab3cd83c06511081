"""Self-contained HTML trace dashboard: ``python -m repro obs --html``.

Renders one zero-dependency HTML file — inline CSS, inline SVG, a few
lines of vanilla JS for tooltips, no CDN, no external request of any
kind — from the same structured :class:`~repro.obs.analyze.Analysis`
the text report consumes:

* an **iteration/phase waterfall** (where each CEGIS round's wall-clock
  went, phase by phase, on a shared time axis);
* **stat tiles** for oracle/embedding cache hit rates, phase latency
  quantiles (p50/p95/p99 from the metrics histograms) and
  verification-reuse provenance;
* a **slowest-queries table**;
* optionally a **sweep fleet view** (``--sweep JOURNAL``) merging the
  run ledger into job swimlanes over wall-clock, a queue-depth curve,
  retry/backoff/degradation incidents and the replayed-vs-fresh split
  of a resumed sweep.

The output is **deterministic**: all times are rendered relative to the
trace/journal origin, floats go through fixed-precision formatters, and
no wall-clock stamp is embedded — re-rendering the same trace yields a
byte-identical file, so golden tests can pin the structure and CI can
diff dashboards across commits.
"""

from __future__ import annotations

from html import escape
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.analyze import (
    PHASE_NAMES,
    Analysis,
    analyze,
    format_quantile,
    load_trace,
)
from repro.reporting.tables import format_seconds, render_table

#: Fixed categorical slot per phase (light, dark) — assignment follows
#: the entity, never the rank, so the same phase is the same color in
#: every chart of every dashboard.
PHASE_COLORS: Dict[str, Tuple[str, str]] = {
    "milp_solve": ("#2a78d6", "#3987e5"),  # blue
    "refinement": ("#eb6834", "#d95926"),  # orange
    "certificate_build": ("#1baf7a", "#199e70"),  # aqua
    "matrix_build": ("#eda100", "#c98500"),  # yellow
    "embedding": ("#e87ba4", "#d55181"),  # magenta
    # Query spans wear their phase family's hue.
    "refinement_check": ("#eb6834", "#d95926"),
}

#: Reserved status colors (never reused as series colors).
STATUS_COLORS = {
    "good": "#0ca30c",
    "warning": "#fab219",
    "serious": "#ec835a",
    "critical": "#d03b3b",
}

#: Job terminal status → status-palette role for the fleet swimlanes.
JOB_STATUS_ROLE = {
    "optimal": "good",
    "timeout": "serious",
    "error": "critical",
    "crashed": "critical",
    "cancelled": "muted",
    "unfinished": "muted",
}

_PLOT_W = 940
_GUTTER = 150
_ROW_H = 20
_ROW_GAP = 4
_AXIS_H = 22

#: (label, VerificationStats attribute, CSS class) per reuse-bar slot.
_VERIFY_SLOTS = (
    ("verified (solver)", "verified", "ph-milp_solve"),
    ("cache hit", "cache_hit", "ph-certificate_build"),
    ("carried forward", "carried", "reuse-carried"),
)


def _f(value: float, nd: int = 2) -> str:
    """Fixed-precision float for attribute/coordinate determinism."""
    return f"{value:.{nd}f}"


def _pct(fraction: float) -> str:
    return f"{100.0 * fraction:.1f}%"


class _Doc:
    """A tiny line accumulator; keeps the renderer readable."""

    def __init__(self) -> None:
        self.lines: List[str] = []

    def add(self, line: str) -> None:
        self.lines.append(line)

    def text(self) -> str:
        return "\n".join(self.lines)


# -- shared chart pieces -------------------------------------------------------


def _time_scale(lo: float, hi: float, x0: int, x1: int):
    """t -> x pixel mapper over [lo, hi] (degenerate ranges collapse)."""
    span = max(hi - lo, 1e-9)

    def scale(t: float) -> float:
        return x0 + (t - lo) / span * (x1 - x0)

    return scale


def _axis(doc: _Doc, scale, lo: float, hi: float, y: float, ticks: int = 5) -> None:
    """A horizontal seconds axis with ``ticks`` labeled stops."""
    doc.add(
        f'<line class="axis" x1="{_f(scale(lo))}" y1="{_f(y)}" '
        f'x2="{_f(scale(hi))}" y2="{_f(y)}"/>'
    )
    span = max(hi - lo, 1e-9)
    for i in range(ticks + 1):
        t = lo + span * i / ticks
        x = scale(t)
        doc.add(
            f'<line class="tick" x1="{_f(x)}" y1="{_f(y)}" '
            f'x2="{_f(x)}" y2="{_f(y + 4)}"/>'
        )
        doc.add(
            f'<text class="ticklabel" x="{_f(x)}" y="{_f(y + 16)}" '
            f'text-anchor="middle">{_f(t - lo)}s</text>'
        )


def _legend(entries: Sequence[Tuple[str, str]]) -> str:
    """A swatch legend row; ``entries`` are (label, css-class) pairs."""
    items = "".join(
        f'<span class="legend-item"><span class="swatch {cls}"></span>'
        f"{escape(label)}</span>"
        for label, cls in entries
    )
    return f'<div class="legend">{items}</div>'


def _tile(label: str, value: str, sub: str = "", tone: str = "") -> str:
    tone_cls = f" tile-{tone}" if tone else ""
    sub_html = f'<div class="tile-sub">{sub}</div>' if sub else ""
    return (
        f'<div class="tile{tone_cls}"><div class="tile-label">{escape(label)}'
        f'</div><div class="tile-value">{value}</div>{sub_html}</div>'
    )


# -- run sections --------------------------------------------------------------


def _summary_tiles(analysis: Analysis) -> str:
    tiles: List[str] = []
    for run in analysis.runs:
        tone = "good" if run.status == "optimal" else "serious"
        tiles.append(
            _tile(
                "run",
                escape(run.status),
                sub=f"{format_seconds(run.duration)}s · "
                f"{escape(str(run.iterations))} iterations",
                tone=tone,
            )
        )
    for cache in analysis.caches:
        tiles.append(
            _tile(
                f"{cache.label} hit rate",
                _pct(cache.hit_rate),
                sub=f"{cache.hits} hits · {cache.misses} misses",
            )
        )
    if analysis.verification is not None:
        v = analysis.verification
        tiles.append(
            _tile(
                "verification reuse",
                _pct(v.reuse_rate),
                sub=f"{v.verified} verified · {v.cache_hit} cache · "
                f"{v.carried} carried",
            )
        )
    # Latency quantile tiles for the three heaviest phases that carry a
    # histogram (the p50/p95/p99 estimates from the fixed buckets).
    shown = 0
    for phase in analysis.phases:
        if phase.p95 is None or shown >= 3:
            continue
        tiles.append(
            _tile(
                f"{phase.name} p95",
                f"{format_quantile(phase.p95)}s",
                sub=f"p50 {format_quantile(phase.p50)}s · "
                f"p99 {format_quantile(phase.p99)}s · {phase.calls} calls",
            )
        )
        shown += 1
    return f'<div class="tiles">{"".join(tiles)}</div>'


def _waterfall(analysis: Analysis) -> str:
    trace = analysis.trace
    iterations = sorted(
        trace.named("iteration"), key=lambda s: s["attrs"].get("index", 0)
    )
    if not iterations:
        return '<p class="empty">no iteration spans recorded</p>'
    lo = min(s["start"] for s in iterations)
    hi = max(s["end"] for s in iterations)
    scale = _time_scale(lo, hi, _GUTTER, _PLOT_W - 10)
    height = len(iterations) * (_ROW_H + _ROW_GAP) + _AXIS_H + 6
    doc = _Doc()
    doc.add(
        f'<svg id="waterfall-svg" viewBox="0 0 {_PLOT_W} {height}" '
        f'width="{_PLOT_W}" height="{height}" role="img" '
        f'aria-label="iteration phase waterfall">'
    )
    used_phases: List[str] = []
    for row, iteration in enumerate(iterations):
        y = row * (_ROW_H + _ROW_GAP)
        index = iteration["attrs"].get("index", row)
        doc.add(
            f'<text class="rowlabel" x="{_GUTTER - 8}" '
            f'y="{_f(y + _ROW_H * 0.7)}" text-anchor="end">'
            f"iter {escape(str(index))}</text>"
        )
        doc.add(
            f'<rect class="rowbg" x="{_GUTTER}" y="{_f(y)}" '
            f'width="{_PLOT_W - 10 - _GUTTER}" height="{_ROW_H}"/>'
        )
        tip = (
            f"iteration {index}: {format_seconds(iteration['duration'])}s, "
            f"cuts {iteration['attrs'].get('cuts_added', '-')}"
        )
        doc.add(
            f'<rect class="iterbar" id="iter-{escape(str(index))}" '
            f'x="{_f(scale(iteration["start"]))}" y="{_f(y)}" '
            f'width="{_f(max(scale(iteration["end"]) - scale(iteration["start"]), 1.0))}" '
            f'height="{_ROW_H}" data-tip="{escape(tip, quote=True)}"/>'
        )
        for child in trace.children(iteration["id"]):
            if child["name"] not in PHASE_NAMES:
                continue
            if child["name"] not in used_phases:
                used_phases.append(child["name"])
            x = scale(child["start"])
            w = max(scale(child["end"]) - x, 1.0)
            tip = (
                f"{child['name']}: {format_seconds(child['duration'])}s "
                f"(iteration {index})"
            )
            doc.add(
                f'<rect class="mark ph-{child["name"]}" x="{_f(x)}" '
                f'y="{_f(y + 2)}" width="{_f(w)}" height="{_ROW_H - 4}" '
                f'rx="2" data-tip="{escape(tip, quote=True)}"/>'
            )
    _axis(doc, scale, lo, hi, len(iterations) * (_ROW_H + _ROW_GAP) + 4)
    doc.add("</svg>")
    legend = _legend(
        [(name, f"ph-{name}") for name in PHASE_NAMES if name in used_phases]
    )
    return doc.text() + legend


def _reuse_bar(analysis: Analysis) -> str:
    stats = analysis.verification
    if stats is None or not stats.checks:
        return (
            '<p class="empty">no verification-reuse counters '
            "(no refinement checks traced)</p>"
        )
    doc = _Doc()
    doc.add(
        f'<svg id="reuse-svg" viewBox="0 0 {_PLOT_W} 40" '
        f'width="{_PLOT_W}" height="40" role="img" '
        f'aria-label="verification reuse provenance">'
    )
    x = 10.0
    total_w = _PLOT_W - 20
    for label, attr, css in _VERIFY_SLOTS:
        count = getattr(stats, attr)
        if not count:
            continue
        w = total_w * count / stats.checks
        tip = f"{label}: {count} of {stats.checks} ({_pct(count / stats.checks)})"
        doc.add(
            f'<rect class="mark {css}" x="{_f(x)}" y="8" '
            f'width="{_f(max(w - 2, 1.0))}" height="24" rx="2" '
            f'data-tip="{escape(tip, quote=True)}"/>'
        )
        if w > 90:
            doc.add(
                f'<text class="barlabel" x="{_f(x + 6)}" y="24">'
                f"{escape(label)} {_pct(count / stats.checks)}</text>"
            )
        x += w
    doc.add("</svg>")
    legend = _legend(
        [
            (label, css)
            for label, attr, css in _VERIFY_SLOTS
            if getattr(stats, attr)
        ]
    )
    return doc.text() + legend


def _queries_table(analysis: Analysis) -> str:
    if not analysis.queries:
        return '<p class="empty">no query spans recorded</p>'
    rows = "".join(
        "<tr>"
        f"<td>{escape(q.name)}</td>"
        f"<td>{escape(str(q.iteration))}</td>"
        f"<td>{escape(q.origin)}</td>"
        f'<td class="num">{format_seconds(q.seconds)}</td>'
        "</tr>"
        for q in analysis.queries
    )
    return (
        '<table id="queries-table"><thead><tr><th>span</th><th>iter</th>'
        "<th>origin (viewpoint [path])</th>"
        '<th class="num">time(s)</th></tr></thead>'
        f"<tbody>{rows}</tbody></table>"
    )


# -- sweep fleet view ----------------------------------------------------------


def _fleet_tiles(timeline) -> str:
    fresh = sum(1 for lane in timeline.jobs if not lane.replayed)
    retries = sum(1 for i in timeline.incidents if i.kind == "job_retry")
    degraded = any(i.kind == "scheduler_degraded" for i in timeline.incidents)
    tiles = [
        _tile(
            "jobs",
            str(len(timeline.jobs)),
            sub=f"{timeline.workers} worker(s) · "
            f"{format_seconds(max(timeline.end - timeline.origin, 0.0))}s wall",
        ),
        _tile(
            "fresh vs replayed",
            f"{fresh} / {timeline.replayed}",
            sub="executed this run / replayed from ledger",
        ),
        _tile(
            "retries",
            str(retries),
            tone="warning" if retries else "",
            sub="crash resubmissions with backoff",
        ),
        _tile(
            "degraded to serial",
            "yes" if degraded else "no",
            tone="serious" if degraded else "good",
            sub="pool rebuild budget exhausted" if degraded else "pool stayed healthy",
        ),
    ]
    return f'<div class="tiles">{"".join(tiles)}</div>'


def _fleet_lanes(timeline) -> str:
    if not timeline.jobs:
        return '<p class="empty">no job lifecycle events in this journal</p>'
    lo = timeline.origin
    hi = max(timeline.end, lo + 1e-9)
    scale = _time_scale(lo, hi, _GUTTER, _PLOT_W - 10)
    height = len(timeline.jobs) * (_ROW_H + _ROW_GAP) + _AXIS_H + 6
    doc = _Doc()
    doc.add(
        f'<svg id="fleet-svg" viewBox="0 0 {_PLOT_W} {height}" '
        f'width="{_PLOT_W}" height="{height}" role="img" '
        f'aria-label="sweep job swimlanes">'
    )
    lane_y = {}
    for row, lane in enumerate(timeline.jobs):
        y = row * (_ROW_H + _ROW_GAP)
        lane_y[lane.job_id] = y
        doc.add(
            f'<text class="rowlabel" x="{_GUTTER - 8}" '
            f'y="{_f(y + _ROW_H * 0.7)}" text-anchor="end">'
            f"{escape(lane.label)}</text>"
        )
        doc.add(
            f'<rect class="rowbg" x="{_GUTTER}" y="{_f(y)}" '
            f'width="{_PLOT_W - 10 - _GUTTER}" height="{_ROW_H}"/>'
        )
        role = JOB_STATUS_ROLE.get(lane.status, "neutral")
        classes = f"mark job-{role}"
        if lane.replayed:
            classes += " job-replayed"
        x = scale(lane.start)
        w = max(scale(lane.end) - x, 2.0)
        source = "replayed from ledger" if lane.replayed else "executed"
        tip = (
            f"{lane.label} — {lane.status}, "
            f"{format_seconds(max(lane.end - lane.start, 0.0))}s, "
            f"{lane.attempts} attempt(s), {source}"
        )
        doc.add(
            f'<rect class="{classes}" id="lane-{escape(lane.job_id[:12])}" '
            f'x="{_f(x)}" y="{_f(y + 2)}" width="{_f(w)}" '
            f'height="{_ROW_H - 4}" rx="2" '
            f'data-tip="{escape(tip, quote=True)}"/>'
        )
        if lane.status != "optimal":
            doc.add(
                f'<text class="barlabel-ink" x="{_f(x + w + 6)}" '
                f'y="{_f(y + _ROW_H * 0.7)}">{escape(lane.status)}</text>'
            )
    # Incident markers: diamonds on the owning job's lane, or pinned to
    # the top axis for sweep-level incidents.
    for n, incident in enumerate(timeline.incidents):
        x = scale(incident.ts)
        y = lane_y.get(incident.job_id, -2)
        cy = y + _ROW_H / 2 if incident.job_id in lane_y else 6
        role = "warning" if incident.kind == "job_retry" else "serious"
        tip = f"{incident.kind}: {incident.detail}"
        doc.add(
            f'<path class="incident incident-{role}" id="incident-{n}" '
            f'd="M {_f(x)} {_f(cy - 6)} L {_f(x + 5)} {_f(cy)} '
            f'L {_f(x)} {_f(cy + 6)} L {_f(x - 5)} {_f(cy)} Z" '
            f'data-tip="{escape(tip, quote=True)}"/>'
        )
    if timeline.resume_ts is not None:
        x = scale(timeline.resume_ts)
        doc.add(
            f'<line class="resume-line" x1="{_f(x)}" y1="0" x2="{_f(x)}" '
            f'y2="{_f(len(timeline.jobs) * (_ROW_H + _ROW_GAP))}" '
            f'data-tip="sweep resumed here ({timeline.replayed} replayed)"/>'
        )
    _axis(doc, scale, lo, hi, len(timeline.jobs) * (_ROW_H + _ROW_GAP) + 4)
    doc.add("</svg>")
    legend = _legend(
        [
            ("optimal", "job-good"),
            ("engine outcome", "job-neutral"),
            ("timeout", "job-serious"),
            ("crashed/error", "job-critical"),
            ("incident", "incident-warning"),
        ]
    )
    return doc.text() + legend


def _fleet_depth(timeline) -> str:
    if not timeline.depth:
        return '<p class="empty">no in-flight intervals (all jobs replayed?)</p>'
    lo = timeline.origin
    hi = max(timeline.end, lo + 1e-9)
    peak = max(depth for _, depth in timeline.depth) or 1
    h = 80
    scale = _time_scale(lo, hi, _GUTTER, _PLOT_W - 10)
    doc = _Doc()
    doc.add(
        f'<svg id="depth-svg" viewBox="0 0 {_PLOT_W} {h + _AXIS_H}" '
        f'width="{_PLOT_W}" height="{h + _AXIS_H}" role="img" '
        f'aria-label="in-flight job count over time">'
    )
    doc.add(
        f'<text class="rowlabel" x="{_GUTTER - 8}" y="14" text-anchor="end">'
        f"in flight (peak {peak})</text>"
    )

    def y_of(depth: int) -> float:
        return h - 6 - (h - 16) * depth / peak

    points = [f"{_f(scale(lo))},{_f(y_of(0))}"]
    previous = 0
    for ts, depth in timeline.depth:
        x = scale(ts)
        points.append(f"{_f(x)},{_f(y_of(previous))}")  # step, not slope
        points.append(f"{_f(x)},{_f(y_of(depth))}")
        previous = depth
    points.append(f"{_f(scale(hi))},{_f(y_of(previous))}")
    doc.add(f'<polyline class="depth-line" points="{" ".join(points)}"/>')
    _axis(doc, scale, lo, hi, h)
    doc.add("</svg>")
    return doc.text()


def _fleet_incidents(timeline) -> str:
    if not timeline.incidents:
        return '<p class="empty">no incidents: no retries, timeouts or degradation</p>'
    rows = "".join(
        "<tr>"
        f'<td class="num">{_f(i.ts - timeline.origin)}s</td>'
        f"<td>{escape(i.kind)}</td>"
        f"<td>{escape((i.job_id or '-')[:12])}</td>"
        f"<td>{escape(i.detail)}</td>"
        "</tr>"
        for i in timeline.incidents
    )
    return (
        '<table id="incidents-table"><thead><tr><th class="num">t</th>'
        "<th>incident</th><th>job</th><th>detail</th></tr></thead>"
        f"<tbody>{rows}</tbody></table>"
    )


# -- page assembly -------------------------------------------------------------

_CSS = """
:root { color-scheme: light dark; }
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --border: rgba(11,11,11,0.10);
  --status-good: #0ca30c; --status-warning: #fab219;
  --status-serious: #ec835a; --status-critical: #d03b3b;
  --series-neutral: #2a78d6;
  --ph-milp_solve: #2a78d6; --ph-refinement: #eb6834;
  --ph-certificate_build: #1baf7a; --ph-matrix_build: #eda100;
  --ph-embedding: #e87ba4; --ph-refinement_check: #eb6834;
  --reuse-carried: #4a3aa7;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
    --series-neutral: #3987e5;
    --ph-milp_solve: #3987e5; --ph-refinement: #d95926;
    --ph-certificate_build: #199e70; --ph-matrix_build: #c98500;
    --ph-embedding: #d55181; --ph-refinement_check: #d95926;
    --reuse-carried: #9085e9;
  }
}
body.viz-root {
  margin: 0; padding: 24px; background: var(--page);
  color: var(--text-primary);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; color: var(--text-primary); }
.meta { color: var(--text-muted); margin: 0 0 16px; }
section { background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px; margin: 0 0 16px; max-width: 972px; }
section > h2:first-child { margin-top: 0; }
.empty, .note { color: var(--text-muted); margin: 4px 0; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile { border: 1px solid var(--border); border-radius: 8px;
  padding: 10px 14px; min-width: 130px; }
.tile-label { color: var(--text-muted); font-size: 12px; }
.tile-value { font-size: 22px; }
.tile-sub { color: var(--text-secondary); font-size: 12px; }
.tile-good .tile-value { color: var(--status-good); }
.tile-warning .tile-value { color: var(--status-warning); }
.tile-serious .tile-value { color: var(--status-serious); }
svg { display: block; max-width: 100%; }
svg text { font: 11px system-ui, -apple-system, "Segoe UI", sans-serif;
  fill: var(--text-secondary); }
.rowlabel { fill: var(--text-secondary); }
.ticklabel { fill: var(--text-muted); font-variant-numeric: tabular-nums; }
.barlabel { fill: #ffffff; font-size: 11px; }
.barlabel-ink { fill: var(--text-secondary); }
.rowbg { fill: none; stroke: var(--grid); stroke-width: 1; }
.axis { stroke: var(--axis); stroke-width: 1; }
.tick { stroke: var(--axis); stroke-width: 1; }
.iterbar { fill: var(--grid); opacity: 0.45; }
.mark { stroke: var(--surface-1); stroke-width: 1; }
.mark:hover { opacity: 0.8; }
.ph-milp_solve { fill: var(--ph-milp_solve); }
.ph-refinement { fill: var(--ph-refinement); }
.ph-certificate_build { fill: var(--ph-certificate_build); }
.ph-matrix_build { fill: var(--ph-matrix_build); }
.ph-embedding { fill: var(--ph-embedding); }
.ph-refinement_check { fill: var(--ph-refinement_check); }
.reuse-carried { fill: var(--reuse-carried); }
.job-good { fill: var(--status-good); }
.job-serious { fill: var(--status-serious); }
.job-critical { fill: var(--status-critical); }
.job-muted { fill: var(--text-muted); }
.job-neutral { fill: var(--series-neutral); }
.job-replayed { opacity: 0.45; stroke-dasharray: 3 2; }
.incident { stroke: var(--surface-1); stroke-width: 1; }
.incident-warning { fill: var(--status-warning); }
.incident-serious { fill: var(--status-serious); }
.resume-line { stroke: var(--text-muted); stroke-width: 1;
  stroke-dasharray: 4 3; }
.depth-line { fill: none; stroke: var(--series-neutral); stroke-width: 2; }
.legend { display: flex; flex-wrap: wrap; gap: 14px; margin-top: 8px;
  color: var(--text-secondary); font-size: 12px; }
.legend-item { display: inline-flex; align-items: center; gap: 5px; }
.swatch { width: 10px; height: 10px; border-radius: 2px;
  display: inline-block; }
span.swatch.incident-warning { background: var(--status-warning); }
span.swatch.job-good { background: var(--status-good); }
span.swatch.job-neutral { background: var(--series-neutral); }
span.swatch.job-serious { background: var(--status-serious); }
span.swatch.job-critical { background: var(--status-critical); }
span.swatch.ph-milp_solve { background: var(--ph-milp_solve); }
span.swatch.ph-refinement { background: var(--ph-refinement); }
span.swatch.ph-certificate_build { background: var(--ph-certificate_build); }
span.swatch.ph-matrix_build { background: var(--ph-matrix_build); }
span.swatch.ph-embedding { background: var(--ph-embedding); }
span.swatch.ph-refinement_check { background: var(--ph-refinement_check); }
span.swatch.reuse-carried { background: var(--reuse-carried); }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th { text-align: left; color: var(--text-muted); font-weight: 500;
  border-bottom: 1px solid var(--axis); padding: 4px 10px 4px 0; }
td { border-bottom: 1px solid var(--grid); padding: 4px 10px 4px 0;
  color: var(--text-secondary); }
th.num, td.num { text-align: right;
  font-variant-numeric: tabular-nums; }
#tooltip { position: fixed; display: none; pointer-events: none;
  background: var(--text-primary); color: var(--surface-1);
  padding: 4px 8px; border-radius: 4px; font-size: 12px; max-width: 360px;
  z-index: 10; }
""".strip()

_JS = """
(function () {
  var tip = document.getElementById('tooltip');
  document.addEventListener('mousemove', function (event) {
    var target = event.target.closest ? event.target.closest('[data-tip]') : null;
    if (!target) { tip.style.display = 'none'; return; }
    tip.textContent = target.getAttribute('data-tip');
    tip.style.display = 'block';
    var x = Math.min(event.clientX + 12, window.innerWidth - tip.offsetWidth - 8);
    var y = Math.min(event.clientY + 12, window.innerHeight - tip.offsetHeight - 8);
    tip.style.left = x + 'px';
    tip.style.top = y + 'px';
  });
}());
""".strip()


def render_dashboard(
    analysis: Optional[Analysis] = None,
    timeline=None,
    title: str = "repro trace dashboard",
) -> str:
    """The whole page as one deterministic HTML string.

    ``analysis`` drives the run sections (waterfall, tiles, reuse,
    queries); ``timeline`` (a :class:`repro.runtime.ledger.SweepTimeline`)
    drives the fleet view. Either may be omitted; at least one must be
    given.
    """
    if analysis is None and timeline is None:
        raise ValueError("render_dashboard needs an analysis, a timeline, or both")
    doc = _Doc()
    doc.add("<!DOCTYPE html>")
    doc.add('<html lang="en"><head><meta charset="utf-8"/>')
    doc.add(
        '<meta name="viewport" content="width=device-width, initial-scale=1"/>'
    )
    doc.add(f"<title>{escape(title)}</title>")
    doc.add(f"<style>{_CSS}</style></head>")
    doc.add('<body class="viz-root">')
    doc.add(f'<h1 id="header">{escape(title)}</h1>')
    meta_bits: List[str] = []
    if analysis is not None and analysis.trace.meta.get("trace_id"):
        meta_bits.append(f"trace {analysis.trace.meta['trace_id']}")
    if analysis is not None:
        meta_bits.append(f"{len(analysis.trace.spans)} spans")
    if timeline is not None:
        meta_bits.append(f"{len(timeline.jobs)} sweep jobs")
    doc.add(f'<p class="meta">{escape(" · ".join(meta_bits))}</p>')
    if analysis is not None:
        doc.add('<section id="summary"><h2>Summary</h2>')
        doc.add(_summary_tiles(analysis))
        doc.add("</section>")
        doc.add('<section id="waterfall"><h2>Iteration waterfall</h2>')
        doc.add(_waterfall(analysis))
        doc.add("</section>")
        doc.add('<section id="reuse"><h2>Verification reuse</h2>')
        doc.add(_reuse_bar(analysis))
        doc.add("</section>")
        doc.add('<section id="queries"><h2>Slowest queries</h2>')
        doc.add(_queries_table(analysis))
        doc.add("</section>")
    if timeline is not None:
        doc.add('<section id="sweep"><h2>Sweep fleet</h2>')
        doc.add(_fleet_tiles(timeline))
        doc.add('<h2 id="sweep-lanes">Job swimlanes</h2>')
        doc.add(_fleet_lanes(timeline))
        doc.add('<h2 id="sweep-depth">Queue depth</h2>')
        doc.add(_fleet_depth(timeline))
        doc.add('<h2 id="sweep-incidents">Incidents</h2>')
        doc.add(_fleet_incidents(timeline))
        doc.add("</section>")
    doc.add('<p class="note">generated by `python -m repro obs --html` — '
            "self-contained, deterministic for a given trace</p>")
    doc.add('<div id="tooltip"></div>')
    doc.add(f"<script>{_JS}</script>")
    doc.add("</body></html>")
    return doc.text() + "\n"


def render_fleet_text(timeline) -> str:
    """Plain-text fleet summary for ``--sweep`` without ``--html``."""
    rows = [
        [
            lane.label,
            lane.job_id[:8],
            lane.status,
            format_seconds(max(lane.end - lane.start, 0.0)),
            lane.attempts,
            "replayed" if lane.replayed else "fresh",
        ]
        for lane in timeline.jobs
    ]
    jobs = render_table(
        ["job", "id", "status", "time", "attempts", "source"],
        rows,
        title=f"Sweep fleet ({len(timeline.jobs)} jobs)",
    )
    if timeline.incidents:
        incident_rows = [
            [
                f"{i.ts - timeline.origin:.2f}s",
                i.kind,
                (i.job_id or "-")[:8],
                i.detail,
            ]
            for i in timeline.incidents
        ]
        incidents = render_table(
            ["t", "incident", "job", "detail"], incident_rows, title="Incidents"
        )
    else:
        incidents = "no incidents: no retries, timeouts or degradation"
    return f"{jobs}\n\n{incidents}"


def main(
    trace_path: Optional[str],
    html_path: Optional[str] = None,
    sweep_path: Optional[str] = None,
    top: int = 10,
) -> int:
    """CLI entry point for the dashboard and fleet views."""
    import json
    import sys

    analysis = None
    timeline = None
    try:
        if trace_path is not None:
            analysis = analyze(load_trace(trace_path), top=top)
        if sweep_path is not None:
            from repro.runtime.ledger import sweep_timeline

            timeline = sweep_timeline(sweep_path)
    except FileNotFoundError as exc:
        print(f"error: {exc.filename}: no such file", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError) as exc:
        print(f"error: unreadable trace/journal: {exc}", file=sys.stderr)
        return 2
    if html_path is not None:
        page = render_dashboard(analysis=analysis, timeline=timeline)
        with open(html_path, "w", encoding="utf-8") as stream:
            stream.write(page)
        print(f"wrote dashboard {html_path}", file=sys.stderr)
        return 0
    # --sweep without --html: text fleet summary.
    if timeline is not None:
        print(render_fleet_text(timeline))
        return 0
    return 0
