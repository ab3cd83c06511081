"""Hierarchical run tracing: spans, deterministic ids, pluggable sinks.

A traced exploration produces one tree of spans per run::

    run
    +- iteration #1
    |  +- matrix_build          (phase)
    |  +- milp_solve            (phase)
    |  +- refinement            (phase)
    |  |  +- refinement_check   (one per (viewpoint, path) plan entry)
    |  +- certificate_build     (phase)
    |     +- embedding          (phase, one per enumerated fragment)
    +- iteration #2
       ...

**Deterministic ids.** A span's id is a short hash of
``(parent_id, name, seq)`` where ``seq`` is the span's ordinal among
same-named siblings (assigned automatically in creation order, or
passed explicitly by callers that know a stable ordinal — e.g. the plan
index of a refinement query). Ids therefore depend only on the span
tree's *structure*, never on wall-clock or process ids: two runs with
identical trajectories produce identical ids, which lets traces from
different runs be diffed structurally.

**One clock.** Spans are timed with ``time.perf_counter`` shifted by a
single ``time.time`` anchor taken when the :class:`Tracer` is created
(:meth:`Tracer.now`), so span ``start``/``end`` are Unix-epoch seconds
while durations are immune to wall-clock adjustments.

**Phases.** Spans opened with :meth:`Tracer.phase` carry
``kind="phase"``; closing one also records its duration in the
``<name>_seconds`` histogram of :attr:`Tracer.metrics`. Those
histograms are the exploration loop's only timer: per-iteration times,
``stats.total_time`` and ``stats.phase_profile`` are derived from them
(see :mod:`repro.explore.engine`).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import uuid
from contextlib import contextmanager
from typing import (
    Any,
    ContextManager,
    Dict,
    IO,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.obs.metrics import Metrics


def span_id_for(parent_id: Optional[str], name: str, seq: int) -> str:
    """The deterministic id of the span at ``(parent, name, seq)``."""
    basis = f"{parent_id or ''}/{name}#{seq}"
    return hashlib.sha1(basis.encode("utf-8")).hexdigest()[:12]


class Span:
    """One timed, attributed interval in the run tree."""

    __slots__ = ("name", "span_id", "parent_id", "start", "end", "attrs", "pid")

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: Optional[str],
        start: float,
        attrs: Optional[Dict[str, Any]] = None,
        pid: Optional[int] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, Any] = dict(attrs or {})
        self.pid = pid if pid is not None else os.getpid()

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def set_attrs(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "pid": self.pid,
        }

    def __repr__(self) -> str:
        state = f"{self.duration:.4f}s" if self.closed else "open"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


# -- sinks ---------------------------------------------------------------------


class InMemorySink:
    """Collects finished span records (and the metrics snapshot) in RAM."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.metrics: Optional[Dict[str, Any]] = None
        self.meta: Optional[Dict[str, Any]] = None

    def on_meta(self, record: Dict[str, Any]) -> None:
        self.meta = record

    def on_span(self, record: Dict[str, Any]) -> None:
        self.spans.append(record)

    def on_metrics(self, snapshot: Dict[str, Any]) -> None:
        self.metrics = snapshot

    def close(self) -> None:
        pass


class JsonlSink:
    """Streams one JSON record per line: trace meta, spans, metrics.

    Record shapes: ``{"type": "trace", "trace_id": ...}`` once at the
    start, ``{"type": "span", ...Span.to_dict()...}`` per finished span
    (in finish order, children before parents), and one
    ``{"type": "metrics", "metrics": {...}}`` at :meth:`close`.
    """

    def __init__(self, sink: Union[str, IO[str]]) -> None:
        if isinstance(sink, str):
            self._stream: IO[str] = open(sink, "w", encoding="utf-8")
            self._owns_stream = True
            self.path: Optional[str] = sink
        else:
            self._stream = sink
            self._owns_stream = False
            self.path = None
        self._closed = False

    def _write(self, record: Dict[str, Any]) -> None:
        self._stream.write(json.dumps(record, sort_keys=True) + "\n")

    def on_meta(self, record: Dict[str, Any]) -> None:
        self._write(dict(record, type="trace"))

    def on_span(self, record: Dict[str, Any]) -> None:
        self._write(dict(record, type="span"))

    def on_metrics(self, snapshot: Dict[str, Any]) -> None:
        self._write({"type": "metrics", "metrics": snapshot})

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._stream.flush()
        finally:
            if self._owns_stream:
                self._stream.close()


class ChromeTraceSink:
    """Writes the Chrome ``trace_event`` JSON object format.

    The produced file loads directly in ``chrome://tracing`` and
    `Perfetto <https://ui.perfetto.dev>`_: one complete ("X") event per
    span with microsecond timestamps relative to the trace start, the
    recording process id as ``tid`` and the span's attributes plus its
    deterministic id/parent under ``args``. The metrics snapshot rides
    along as one ``repro.metrics`` metadata event so nothing is lost
    relative to the JSONL format.
    """

    def __init__(self, sink: Union[str, IO[str]]) -> None:
        if isinstance(sink, str):
            self._stream: IO[str] = open(sink, "w", encoding="utf-8")
            self._owns_stream = True
            self.path: Optional[str] = sink
        else:
            self._stream = sink
            self._owns_stream = False
            self.path = None
        self._spans: List[Dict[str, Any]] = []
        self._meta: Dict[str, Any] = {}
        self._metrics: Optional[Dict[str, Any]] = None
        self._closed = False

    def on_meta(self, record: Dict[str, Any]) -> None:
        self._meta = dict(record)

    def on_span(self, record: Dict[str, Any]) -> None:
        self._spans.append(record)

    def on_metrics(self, snapshot: Dict[str, Any]) -> None:
        self._metrics = snapshot

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        origin = min((s["start"] for s in self._spans), default=0.0)
        events: List[Dict[str, Any]] = []
        for span in self._spans:
            args = dict(span["attrs"])
            args["id"] = span["id"]
            if span["parent"]:
                args["parent"] = span["parent"]
            events.append(
                {
                    "name": span["name"],
                    "ph": "X",
                    "ts": round((span["start"] - origin) * 1e6, 3),
                    "dur": round(span["duration"] * 1e6, 3),
                    "pid": 1,
                    "tid": span["pid"],
                    "cat": str(span["attrs"].get("kind", "span")),
                    "args": args,
                }
            )
        document: Dict[str, Any] = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(self._meta),
        }
        if self._metrics is not None:
            document["otherData"]["metrics"] = self._metrics
        try:
            json.dump(document, self._stream, sort_keys=True)
            self._stream.write("\n")
            self._stream.flush()
        finally:
            if self._owns_stream:
                self._stream.close()


# -- the tracer ----------------------------------------------------------------


class Tracer:
    """Produces one run-scoped span tree and owns the metrics registry.

    Single-threaded by design (the exploration parent is): open spans
    form a stack, and :meth:`span` children attach to the innermost open
    span. Finished spans are forwarded to every sink immediately;
    metrics are snapshotted once at :meth:`finish`. A tracer without
    sinks still times every span and feeds the metrics registry.
    """

    def __init__(
        self,
        sinks: Sequence[Any] = (),
        trace_id: Optional[str] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self._epoch = time.time() - time.perf_counter()
        self.sinks = list(sinks)
        self.metrics = metrics if metrics is not None else Metrics()
        self.spans_recorded = 0
        self._stack: List[Span] = []
        self._seq: Dict[Any, int] = {}
        self._finished = False
        for sink in self.sinks:
            on_meta = getattr(sink, "on_meta", None)
            if on_meta is not None:
                on_meta({"trace_id": self.trace_id, "created": self.now()})

    # -- span lifecycle -----------------------------------------------------

    def now(self) -> float:
        """The tracer's clock: ``perf_counter`` on the Unix-epoch scale."""
        return self._epoch + time.perf_counter()

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def _next_seq(self, parent_id: Optional[str], name: str) -> int:
        key = (parent_id, name)
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        return seq

    def start_span(
        self,
        name: str,
        seq: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Open a span under the current one.

        ``seq`` overrides the automatic sibling ordinal — pass it when a
        stable external ordinal exists (e.g. the plan index) so
        the id survives reordering of *other* siblings.
        """
        parent_id = self.current.span_id if self._stack else None
        if seq is None:
            seq = self._next_seq(parent_id, name)
        span = Span(
            name,
            span_id_for(parent_id, name, seq),
            parent_id,
            self.now(),
            attrs=attrs,
        )
        self._stack.append(span)
        return span

    def end_span(self, span: Span) -> None:
        """Close a span, time a phase into its histogram, forward it to
        the sinks."""
        if span.closed:
            return
        span.end = self.now()
        if span.attrs.get("kind") == "phase":
            self.metrics.observe(f"{span.name}_seconds", span.duration)
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # defensive: out-of-order close
            self._stack.remove(span)
        self._emit(span.to_dict())

    @contextmanager
    def span(
        self,
        name: str,
        seq: Optional[int] = None,
        **attrs: Any,
    ) -> Iterator[Span]:
        """Context-managed child span of the current span."""
        span = self.start_span(name, seq=seq, attrs=attrs)
        try:
            yield span
        finally:
            self.end_span(span)

    def phase(self, name: str) -> ContextManager[Span]:
        """Context-managed phase span (``kind="phase"``) of the current span."""
        return self.span(name, kind="phase")

    def _emit(self, record: Dict[str, Any]) -> None:
        self.spans_recorded += 1
        for sink in self.sinks:
            sink.on_span(record)

    # -- teardown -----------------------------------------------------------

    def finish(self) -> None:
        """Close any straggler spans, flush metrics, close the sinks."""
        if self._finished:
            return
        self._finished = True
        while self._stack:  # defensive: mark abandoned spans
            span = self._stack[-1]
            span.set_attr("unclosed", True)
            self.end_span(span)
        for sink in self.sinks:
            sink.on_metrics(self.metrics.snapshot())
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.finish()

    def __repr__(self) -> str:
        return (
            f"Tracer(trace_id={self.trace_id}, spans={self.spans_recorded}, "
            f"open={len(self._stack)})"
        )
