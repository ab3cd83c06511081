"""Process-pool worker entry point.

Only JSON-compatible dicts cross the process boundary: the parent sends
``JobSpec.to_dict()`` payloads, the worker rebuilds the problem, runs
the exploration with a per-process :class:`OracleCache` (optionally
backed by the sweep's shared SQLite file) and returns
``JobResult.to_dict()``. Keeping the boundary dict-shaped makes the
worker indifferent to pickling details of live model objects and lets
the scheduler journal raw payloads straight into telemetry.

Deadline enforcement is **worker-side**: the scheduler hands
:func:`run_job` its per-job wall-clock budget and the worker bounds
itself twice over —

* *cooperatively*, by clamping the explorer's ``time_limit`` to the
  deadline (the exploration loop checks it between iterations), and
* *hard*, by a POSIX interval alarm set slightly past the deadline, so
  a job wedged inside one long solver call is interrupted too.

Either way the job returns a normal record with status ``timeout`` and
its pool slot is immediately reusable — no abandoned futures silently
oversubscribing the machine. (The scheduler keeps a lenient parent-side
expiry only as a last resort for workers that stop responding
entirely.)
"""

from __future__ import annotations

import atexit
import multiprocessing.util
import signal
import sqlite3
import threading
import time
import traceback
import warnings
from typing import Any, Dict, Optional

from repro.runtime import faults
from repro.runtime.job import JobResult, JobSpec
from repro.runtime.oracle import OracleCache

#: Per-process oracle, keyed by cache path, so one worker process reuses
#: its in-memory layer (and SQLite connection) across the many jobs the
#: pool feeds it. Stores are closed at process exit (see
#: :func:`close_process_oracles` and :func:`init_worker`) so SQLite
#: WAL/SHM sidecars do not outlive the pool.
_PROCESS_ORACLES: Dict[Optional[str], OracleCache] = {}

#: Cache paths whose SQLite store could not be opened: the oracle
#: degraded to memory-only and every job records the warning.
_DEGRADED_STORES: Dict[str, str] = {}

_ATEXIT_REGISTERED = False


def close_process_oracles() -> None:
    """Close every registered oracle store (idempotent).

    Registered via :mod:`atexit` when the first oracle is built, and
    as a multiprocessing finalizer in every pool worker (see
    :func:`init_worker`), so the process releases its SQLite
    connection when it ends — without this, WAL/SHM sidecar files
    linger after the pool is gone.
    """
    while _PROCESS_ORACLES:
        _, oracle = _PROCESS_ORACLES.popitem()
        try:
            oracle.close()
        except Exception:
            pass  # exit path: never let cleanup mask the real outcome


def init_worker() -> None:
    """Process-pool initializer: mark the process a worker and close its
    oracles when it exits.

    Pool workers end through ``os._exit``, which skips :mod:`atexit`
    handlers; multiprocessing runs its own finalizers just before that.
    """
    faults.mark_worker_process()
    multiprocessing.util.Finalize(None, close_process_oracles, exitpriority=0)


def _oracle_for(cache_path: Optional[str], use_cache: bool) -> Optional[OracleCache]:
    global _ATEXIT_REGISTERED
    if not use_cache:
        return None
    if cache_path not in _PROCESS_ORACLES:
        store = None
        if cache_path is not None:
            from repro.runtime.store import SQLiteStore

            try:
                store = SQLiteStore(cache_path)
            except sqlite3.DatabaseError as error:
                # A corrupt cache DB must not fail every job routed to
                # this worker: degrade to a memory-only oracle and let
                # each job record carry the warning into telemetry.
                _DEGRADED_STORES[cache_path] = repr(error)
                warnings.warn(
                    f"oracle cache {cache_path!r} unusable ({error!r}); "
                    f"continuing with a memory-only oracle",
                    RuntimeWarning,
                    stacklevel=2,
                )
        _PROCESS_ORACLES[cache_path] = OracleCache(store=store)
        if not _ATEXIT_REGISTERED:
            atexit.register(close_process_oracles)
            _ATEXIT_REGISTERED = True
    return _PROCESS_ORACLES[cache_path]


class _HardDeadline(Exception):
    """Raised by the SIGALRM handler when the hard deadline fires."""


class _hard_alarm:
    """Context manager arming a one-shot POSIX alarm.

    Only armed in a main thread on platforms with ``setitimer`` (signal
    handlers cannot be installed elsewhere); otherwise the cooperative
    clamp is the only enforcement — still enough for any job that
    reaches the exploration loop.
    """

    def __init__(self, seconds: Optional[float]) -> None:
        self.seconds = seconds
        self._previous: Any = None
        self.armed = False

    def __enter__(self) -> "_hard_alarm":
        if (
            self.seconds is not None
            and hasattr(signal, "setitimer")
            and threading.current_thread() is threading.main_thread()
        ):
            def _raise(_signum: int, _frame: Any) -> None:
                raise _HardDeadline()

            self._previous = signal.signal(signal.SIGALRM, _raise)
            signal.setitimer(signal.ITIMER_REAL, self.seconds)
            self.armed = True
        return self

    def __exit__(self, *_exc: Any) -> bool:
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        return False


def hard_deadline_grace(deadline: float) -> float:
    """Headroom the hard alarm grants the cooperative check.

    The cooperative clamp fires between iterations; the alarm only
    needs to catch jobs wedged *inside* one call, so it triggers a
    little after the deadline proper.
    """
    return max(1.0, 0.25 * deadline)


def run_job(
    spec_dict: Dict[str, Any],
    cache_path: Optional[str] = None,
    use_cache: bool = True,
    deadline: Optional[float] = None,
) -> Dict[str, Any]:
    """Execute one job and return its ``JobResult.to_dict()`` record.

    Exceptions are captured into an ``error`` record rather than
    propagated — a crashed *query* should fail one job, not poison the
    pool. (Hard crashes of the worker process itself are handled by the
    scheduler's retry logic.)

    ``deadline`` bounds this job's wall clock *from inside the worker*
    (see the module docstring): a job that exceeds it returns a
    ``timeout`` record and frees its slot. It is an execution-time
    override: the spec (and hence its job id) is not mutated.
    """
    spec = JobSpec.from_dict(spec_dict)
    clamp: Optional[float] = None
    if deadline is not None:
        own_limit = spec.engine.get("time_limit")
        if own_limit is None or deadline < own_limit:
            # The sweep deadline is tighter than the job's own budget:
            # clamp the cooperative check and relabel a resulting
            # TIME_LIMIT as a runtime-level timeout. (If the job's own
            # time_limit binds first, TIME_LIMIT stays a legitimate
            # engine outcome, identical to an un-swept run.)
            clamp = deadline
    oracle = _oracle_for(cache_path, use_cache)
    before = oracle.stats.to_dict() if oracle is not None else None
    started = time.perf_counter()
    hard_limit = (
        deadline + hard_deadline_grace(deadline) if deadline is not None else None
    )
    try:
        with _hard_alarm(hard_limit):
            faults.maybe_inject("job", spec.label)
            result = spec.make_explorer(oracle=oracle, time_limit=clamp).explore()
    except _HardDeadline:
        return JobResult(
            spec.job_id,
            spec,
            "timeout",
            error=f"worker-side hard deadline ({deadline:g}s budget) exceeded",
            duration=time.perf_counter() - started,
        ).to_dict()
    except Exception:
        return JobResult(
            spec.job_id,
            spec,
            "error",
            error=traceback.format_exc(limit=20),
            duration=time.perf_counter() - started,
        ).to_dict()
    if clamp is not None and result.status.value == "time_limit":
        return JobResult(
            spec.job_id,
            spec,
            "timeout",
            error=f"worker-side deadline ({deadline:g}s budget) exceeded",
            stats=result.stats.to_dict(),
            duration=time.perf_counter() - started,
        ).to_dict()
    cache_stats = None
    if oracle is not None:
        after = oracle.stats.to_dict()
        cache_stats = {
            key: after[key] - before[key]
            for key in ("hits", "misses", "stores", "uncacheable")
        }
        queries = cache_stats["hits"] + cache_stats["misses"]
        cache_stats["hit_rate"] = cache_stats["hits"] / queries if queries else 0.0
        if cache_path in _DEGRADED_STORES:
            cache_stats["warning"] = (
                f"store degraded to memory-only: {_DEGRADED_STORES[cache_path]}"
            )
    return JobResult.from_exploration(
        spec,
        result,
        cache=cache_stats,
        duration=time.perf_counter() - started,
    ).to_dict()
