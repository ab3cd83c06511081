"""Per-layer self times, measured from outside the program.

The traced pass wraps public functions of the layers at the place where
their caller looks them up, and keeps one stack of open calls: each
wrapped call is charged its duration minus the time of the wrapped calls
nested inside it (its *self time*). Nothing under ``src/`` is edited and
none of the program's own profiling switches is turned on, so the traced
pass runs exactly the code an untraced run does, plus the wrappers.

A name must be patched where the caller resolves it: the exploration
loop calls ``generate_cuts`` through ``repro.explore.engine``'s globals,
so patching ``repro.explore.certificates.generate_cuts`` would see
nothing. Methods are patched on their class, which every instance
resolves through.

The tracer is single-threaded: the traced workloads make every wrapped
call on the main thread (serial scheduler, one in-run worker).
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Hook = Callable[[Any, tuple], Dict[str, int]]


def _exploration_counters(result: Any, _args: tuple) -> Dict[str, int]:
    stats = result.stats
    verification = stats.verification or {}
    oracle = stats.oracle_cache or {}
    return {
        "iterations": stats.num_iterations,
        "cuts_kept": stats.total_cuts,
        "rows_final": stats.final_milp_constraints,
        "verify_checks": verification.get("checks", 0),
        "verify_carried": verification.get("carried", 0),
        "oracle_hits": oracle.get("hits", 0),
        "oracle_misses": oracle.get("misses", 0),
    }


#: Every patched attribute: (module, class within the module or "" for
#: a module global, attribute, span name, optional counter hook). A hook
#: maps (result, positional args) to counter increments.
TARGETS: List[Tuple[str, str, str, str, Optional[Hook]]] = [
    ("repro.explore.engine", "ContrArcExplorer", "explore",
     "explore.engine.loop", _exploration_counters),
    ("repro.explore.refinement_check", "RefinementChecker", "check_all",
     "explore.refinement_check.plan", None),
    ("repro.explore.engine", "", "build_candidate_milp",
     "explore.encoding.build", None),
    ("repro.explore.engine", "", "generate_cuts",
     "explore.certificates.generate",
     lambda result, args: {"cuts_emitted": len(result)}),
    ("repro.graph.matchers", "", "find_embeddings",
     "graph.isomorphism.enumerate",
     lambda result, args: {"embeddings": len(result)}),
    ("repro.explore.incremental", "DependencySlicer", "fingerprint",
     "explore.incremental.fingerprint", None),
    ("repro.contracts.contract", "Contract", "substitute",
     "contracts.substitute", None),
    ("repro.explore.refinement_check", "", "compose",
     "contracts.compose", None),
    ("repro.explore.refinement_check", "", "check_refinement",
     "contracts.refinement.check",
     lambda result, args: {"refinement_fails": int(not result.holds)}),
    ("repro.runtime.oracle", "OracleCache", "sat_query",
     "runtime.oracle.lookup", None),
    ("repro.runtime.oracle", "OracleCache", "milp_solve",
     "runtime.oracle.lookup", None),
    ("repro.explore.engine", "", "formula_key",
     "runtime.keys.formula_key", None),
    ("repro.runtime.oracle", "", "formula_key",
     "runtime.keys.formula_key", None),
    ("repro.runtime.oracle", "", "model_key",
     "runtime.keys.model_key", None),
    ("repro.runtime.store", "SQLiteStore", "get", "runtime.store.get",
     lambda result, args: {"rows_read": int(result is not None)}),
    ("repro.runtime.store", "SQLiteStore", "get_many", "runtime.store.get",
     lambda result, args: {"rows_read": len(result)}),
    ("repro.runtime.store", "SQLiteStore", "put", "runtime.store.put",
     lambda result, args: {"rows_written": 1}),
    ("repro.runtime.store", "SQLiteStore", "put_many", "runtime.store.put",
     lambda result, args: {"rows_written": len(args[1])}),
    # The inner call: check_sat re-enters itself through its module
    # global once the oracle misses, so each span here is one real solve.
    ("repro.solver.feasibility", "", "check_sat",
     "solver.feasibility.sat_solve", None),
    ("repro.solver.encoder", "FormulaEncoder", "enforce",
     "solver.encoder.enforce", None),
    ("repro.solver.session", "IncrementalSession", "solve",
     "solver.session.solve", None),
    # Self time of Scheduler.run is the scheduler's own overhead: the
    # jobs it runs are the run_job spans below it.
    ("repro.runtime.scheduler", "Scheduler", "run",
     "runtime.scheduler.overhead", None),
    ("repro.runtime.scheduler", "", "run_job", "runtime.worker.run_job", None),
    ("repro.runtime.telemetry", "TelemetryLogger", "emit",
     "runtime.telemetry.emit", None),
]


class LayerTracer:
    """Accumulates self time, call counts and counters per span name."""

    def __init__(self) -> None:
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, int] = defaultdict(int)
        #: Child time accumulated by each open call, innermost last.
        self._stack: List[List[float]] = []

    def _enter(self) -> None:
        self._stack.append([0.0])

    def _exit(self, name: str, elapsed: float) -> None:
        child = self._stack.pop()[0]
        self.self_time[name] += elapsed - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][0] += elapsed

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a block of the benchmark's own code as one span."""
        self._enter()
        started = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, time.perf_counter() - started)

    def wrap(self, name: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        """A drop-in replacement for ``fn`` that records one span per call."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            self._enter()
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, time.perf_counter() - started)
            if hook is not None:
                for counter, amount in hook(result, args).items():
                    self.counters[counter] += amount
            return result

        return traced

    @property
    def total_self_time(self) -> float:
        return sum(self.self_time.values())


def original_attributes() -> List[Tuple[Any, str, Any]]:
    """(owner, attribute, current object) for every patch target."""
    found = []
    for module_name, owner_name, attr, _name, _hook in TARGETS:
        owner = importlib.import_module(module_name)
        if owner_name:
            owner = getattr(owner, owner_name)
        found.append((owner, attr, vars(owner)[attr]))
    return found


@contextmanager
def patched(tracer: LayerTracer) -> Iterator[LayerTracer]:
    """Install the wrappers for the duration of the block, then restore
    every attribute to the identical original object."""
    saved = original_attributes()
    try:
        for (owner, attr, original), (*_, name, hook) in zip(saved, TARGETS):
            setattr(owner, attr, tracer.wrap(name, original, hook))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
