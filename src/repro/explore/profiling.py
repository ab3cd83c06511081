"""Opt-in phase profiler for the exploration loop.

Answers "where does an iteration spend its time" without external
dependencies: the engine (and, via pass-through, the certificate
generator) brackets each phase with :meth:`PhaseProfiler.phase` and the
profiler accumulates wall-clock totals, call counts, and a per-iteration
breakdown. Enabled with ``ContrArcExplorer(profile=True)`` or the
``--profile`` CLI flag; the report lands in
``ExplorationStats.phase_profile`` and therefore in every ``to_dict``
serialization (CLI ``--json``, benchmark JSON artifacts).

Phases used by the engine:

``matrix_build``
    ``Model.to_matrix_form`` — incremental row conversion (near zero
    once the append-only cache path is active).
``milp_solve``
    The candidate MILP solve: LP relaxations plus branch-and-bound for
    the native backend, the HiGHS ``run()`` for scipy.
``refinement``
    Algorithm 1 — all refinement checks of the iteration.
``embedding``
    Subgraph-isomorphism enumeration inside ``generate_cuts``.
``certificate_build``
    The rest of Algorithm 2 (widening, cut assembly, encoding), plus
    checking each solved candidate against the lazy cut pool.

Besides timed phases, the profiler keeps plain event *counters*
(:meth:`PhaseProfiler.count`) — the engine records oracle hits/misses,
embedding-cache traffic and the per-entry verification provenance so
cache effectiveness is machine-readable.

Since the unified tracing layer (:mod:`repro.obs`) landed, the profiler
doubles as the *phase bridge* into it: constructed with a
:class:`~repro.obs.trace.Tracer`, every :meth:`phase` bracket also
opens a phase span (same start/stop points, so trace-derived totals
agree with the profiler's by construction), every phase duration feeds
the ``<name>_seconds`` latency histogram, and every :meth:`count` call
mirrors into the tracer's metrics registry. The profiler's own
accumulation — and therefore the ``--profile`` report — is
byte-identical with or without a tracer bound.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class PhaseProfiler:
    """Accumulates per-phase wall-clock across an exploration run."""

    __slots__ = ("totals", "counts", "counters", "iterations", "_current", "tracer")

    def __init__(self, tracer=None) -> None:
        self.totals: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        #: Plain event counters (not wall-clock): cache hits and
        #: misses, verification provenance, ...
        self.counters: Dict[str, int] = {}
        self.iterations: List[Dict[str, Any]] = []
        self._current: Optional[Dict[str, Any]] = None
        #: Optional :class:`repro.obs.trace.Tracer`; when bound, phases
        #: emit spans and counters mirror into ``tracer.metrics``.
        self.tracer = tracer

    @contextmanager
    def phase(self, name: str) -> Iterator[Any]:
        """Time a block and charge it to ``name`` (re-entrant safe via
        plain accumulation; nested phases are charged to both).

        Yields the phase's :class:`~repro.obs.trace.Span` when a tracer
        is bound (so callers may attach attributes), else ``None``.
        """
        tracer = self.tracer
        span = (
            tracer.start_span(name, attrs={"kind": "phase"})
            if tracer is not None
            else None
        )
        started = time.perf_counter()
        try:
            yield span
        finally:
            elapsed = time.perf_counter() - started
            if span is not None:
                tracer.end_span(span)
                tracer.metrics.observe(f"{name}_seconds", elapsed)
            self.totals[name] = self.totals.get(name, 0.0) + elapsed
            self.counts[name] = self.counts.get(name, 0) + 1
            if self._current is not None:
                self._current[name] = self._current.get(name, 0.0) + elapsed

    def count(self, name: str, increment: int = 1) -> None:
        """Bump a plain event counter (no wall-clock attached)."""
        self.counters[name] = self.counters.get(name, 0) + increment
        if self.tracer is not None:
            self.tracer.metrics.counter(name, increment)

    def begin_iteration(self, index: int) -> None:
        """Start a fresh per-iteration row; subsequent phases add to it."""
        self._current = {"index": index}
        self.iterations.append(self._current)

    def report(self) -> Dict[str, Any]:
        """JSON-compatible summary (stored on ``ExplorationStats``)."""
        data = {
            "totals": dict(self.totals),
            "counts": dict(self.counts),
            "iterations": [dict(row) for row in self.iterations],
        }
        if self.counters:
            data["counters"] = dict(self.counters)
        return data

    def format_table(self) -> str:
        """Human-readable per-phase summary (plus counters) for CLI output."""
        if not self.totals and not self.counters:
            return "profile: no phases recorded"
        lines: List[str] = []
        if self.totals:
            width = max(len(name) for name in self.totals)
            lines.append("phase".ljust(width) + "    total(s)   calls")
            for name in sorted(self.totals, key=self.totals.get, reverse=True):
                lines.append(
                    f"{name.ljust(width)}  {self.totals[name]:10.4f}  "
                    f"{self.counts.get(name, 0):6d}"
                )
        if self.counters:
            if lines:
                lines.append("")
            width = max(len(name) for name in self.counters)
            lines.append("counter".ljust(width) + "       value")
            for name in sorted(self.counters):
                lines.append(f"{name.ljust(width)}  {self.counters[name]:10d}")
        return "\n".join(lines)
