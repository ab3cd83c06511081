"""Deterministic fault injection for chaos-testing the batch runtime.

The scheduler's crash handling is only trustworthy if it is exercised:
this module lets tests (and the CI chaos-smoke job) plant faults at the
runtime's execution seam ``job`` — entry of
:func:`repro.runtime.worker.run_job`, i.e. one sweep job about to
execute in a pool worker (or in-parent).

A *fault plan* is a JSON list of rules carried in the ``REPRO_FAULTS``
environment variable, so it crosses the process boundary to pool
workers under any start method without touching the picklable payloads:

.. code-block:: json

    [{"seam": "job", "kind": "crash", "match": "epn",
      "after": 1, "times": 2, "dir": "/tmp/fault-counters"}]

Rule fields:

``seam``
    Which seam the rule arms (``job``, the default).
``kind``
    ``crash`` (``os._exit`` — the worker process dies, surfacing as
    ``BrokenProcessPool`` in the parent), ``stall`` (sleep ``seconds``,
    default 3600 — exercises deadlines), or ``exception`` (raise
    :class:`FaultInjected` — exercises retry of submit-level errors).
``match``
    Substring of the job label the rule applies to; omit to match
    everything.
``after`` / ``times``
    Skip the first ``after`` matching hits, then fire at most ``times``
    times (default: fire forever). Hits are counted *across processes*
    through an append-only counter file under ``dir`` — a one-byte
    ``O_APPEND`` write is atomic on POSIX, so concurrent workers agree
    on hit ordinals without locks.
``dir``
    Directory for the rule's counter file; required whenever ``after``
    or ``times`` is set.
``worker_only``
    Default true: destructive faults only fire in processes marked as
    pool workers (see :func:`mark_worker_process`), never in the parent
    — a ``crash`` rule must not take down the scheduler (or pytest).
    Set false to arm a rule for serial/in-parent execution too.

Everything is inert unless ``REPRO_FAULTS`` is set: the seam check is
one cached ``os.environ`` lookup.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any, Dict, List, Optional

ENV_VAR = "REPRO_FAULTS"

#: Set by :func:`mark_worker_process` in pool-worker processes (the
#: scheduler's executor initializer,
#: :func:`repro.runtime.worker.init_worker`, calls it).
_IN_WORKER = False

#: Parsed plan cache: ``None`` means "not parsed yet"; a list (possibly
#: empty) means the environment was parsed in this process.
_PLAN: Optional[List[Dict[str, Any]]] = None


class FaultInjected(RuntimeError):
    """Raised by an ``exception``-kind fault rule."""


def mark_worker_process() -> None:
    """Mark this process as a pool worker (executor initializer)."""
    global _IN_WORKER
    _IN_WORKER = True


def reset() -> None:
    """Forget the cached plan (tests change ``REPRO_FAULTS`` mid-process)."""
    global _PLAN
    _PLAN = None


def install_plan(rules: List[Dict[str, Any]]) -> None:
    """Set ``REPRO_FAULTS`` for this process tree (test helper)."""
    os.environ[ENV_VAR] = json.dumps(rules)
    reset()


def uninstall_plan() -> None:
    """Clear ``REPRO_FAULTS`` (test helper)."""
    os.environ.pop(ENV_VAR, None)
    reset()


def _plan() -> List[Dict[str, Any]]:
    global _PLAN
    if _PLAN is None:
        raw = os.environ.get(ENV_VAR, "")
        _PLAN = json.loads(raw) if raw else []
    return _PLAN


def _counter_path(rule: Dict[str, Any]) -> str:
    directory = rule.get("dir")
    if not directory:
        raise ValueError(
            "fault rules with 'after'/'times' need a counter 'dir'"
        )
    digest = hashlib.sha256(
        json.dumps(rule, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]
    return os.path.join(directory, f"fault-{digest}.count")


def _bump(path: str) -> int:
    """Atomically count one hit; returns this hit's 1-based ordinal.

    One byte appended with ``O_APPEND`` per hit: the file size after the
    write is the global hit count, coherent across processes without a
    lock (a short append either fully precedes or fully follows another).
    """
    fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
    try:
        os.write(fd, b"x")
        return os.fstat(fd).st_size
    finally:
        os.close(fd)


def maybe_inject(seam: str, label: str) -> None:
    """Fire any armed fault for (seam, label); no-op without a plan."""
    if ENV_VAR not in os.environ:
        return
    for rule in _plan():
        if rule.get("seam", "job") != seam:
            continue
        match = rule.get("match")
        if match and match not in label:
            continue
        if rule.get("worker_only", True) and not _IN_WORKER:
            continue
        after = int(rule.get("after", 0))
        times = rule.get("times")
        if after or times is not None:
            hit = _bump(_counter_path(rule))
            if hit <= after:
                continue
            if times is not None and hit > after + int(times):
                continue
        _fire(rule, seam, label)


def _fire(rule: Dict[str, Any], seam: str, label: str) -> None:
    kind = rule.get("kind", "exception")
    if kind == "crash":
        # A hard worker death: no cleanup, no exception record — the
        # parent sees BrokenProcessPool, exactly like a segfault/OOM.
        os._exit(int(rule.get("exit_code", 13)))
    if kind == "stall":
        time.sleep(float(rule.get("seconds", 3600.0)))
        return
    raise FaultInjected(f"injected fault at seam {seam!r} ({label!r})")
