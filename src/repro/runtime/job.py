"""Job model for schedulable exploration runs.

A :class:`JobSpec` is a pure-data description of one ContrArc
exploration — which case study, which template sizes, which engine
levers, which limits. Specs are what crosses the process boundary to
pool workers (never live templates or contracts: workers rebuild the
problem from the spec), and the canonical JSON form of a spec yields a
deterministic content-addressed job id, so re-running a grid produces
the same ids and telemetry from different runs can be joined.

A :class:`JobResult` is the machine-readable record of one finished (or
failed) job — the same record the ``--json`` CLI flag prints and the
sweep aggregator consumes.
"""

from __future__ import annotations

import inspect
import json
from functools import lru_cache
from typing import Any, Dict, FrozenSet, Optional, Tuple

from repro.exceptions import ExplorationError
from repro.runtime.keys import text_key

#: Template-size argument names, per case study, in positional order.
CASE_SIZE_ARGS: Dict[str, Tuple[str, ...]] = {
    "rpl": ("n_a", "n_b"),
    "epn": ("left", "right", "apu"),
    "wsn": ("num_sensors", "num_relays", "tiers"),
}

#: Table II's three certificate scenarios, by name.
SCENARIOS: Dict[str, Dict[str, Any]] = {
    "only-iso": {"use_isomorphism": True, "use_decomposition": False},
    "only-decomp": {
        "use_isomorphism": False,
        "use_decomposition": True,
        "widen_implementations": False,
    },
    "complete": {"use_isomorphism": True, "use_decomposition": True},
}

#: Explorer constructor arguments a job supplies itself rather than
#: taking from ``JobSpec.engine``.
_BOUND_EXPLORER_ARGS = (
    "self",
    "mapping_template",
    "specification",
    "oracle",
    "tracer",
)


#: The one value ``JobSpec.engine["backend"]`` accepts. scipy/HiGHS is
#: the only MILP route; specs record it, not the explorer, so specs
#: that carry it keep their job ids.
BACKEND = "scipy"


@lru_cache(maxsize=None)
def engine_keys() -> FrozenSet[str]:
    """The keys ``JobSpec.engine`` accepts: ``scenario``, ``backend``
    and every :class:`~repro.explore.engine.ContrArcExplorer` keyword a
    job may set."""
    from repro.explore.engine import ContrArcExplorer

    params = inspect.signature(ContrArcExplorer.__init__).parameters
    return frozenset(params) - set(_BOUND_EXPLORER_ARGS) | {"scenario", "backend"}


class JobSpec:
    """Description of one exploration job.

    Parameters
    ----------
    case:
        Case-study name: ``rpl``, ``epn`` or ``wsn``.
    sizes:
        Template-size arguments for the case's ``build_problem`` (see
        :data:`CASE_SIZE_ARGS`); missing entries use builder defaults.
    problem:
        Remaining ``build_problem`` keyword overrides (deadlines,
        demands, budgets).
    engine:
        :class:`~repro.explore.engine.ContrArcExplorer` constructor
        overrides (``use_isomorphism``, ``max_iterations``,
        ``time_limit``, ...), plus ``scenario`` and ``backend``
        (:data:`BACKEND` only; recorded, not passed on).
    label:
        Free-form display label; excluded from the job id.
    """

    __slots__ = ("case", "sizes", "problem", "engine", "label")

    def __init__(
        self,
        case: str,
        sizes: Optional[Dict[str, int]] = None,
        problem: Optional[Dict[str, float]] = None,
        engine: Optional[Dict[str, Any]] = None,
        label: str = "",
    ) -> None:
        if case not in CASE_SIZE_ARGS:
            raise ExplorationError(
                f"unknown case study {case!r}; available: {sorted(CASE_SIZE_ARGS)}"
            )
        self.case = case
        self.sizes = dict(sizes or {})
        self.problem = dict(problem or {})
        self.engine = dict(engine or {})
        unknown = set(self.sizes) - set(CASE_SIZE_ARGS[case])
        if unknown:
            raise ExplorationError(
                f"unknown size argument(s) for {case!r}: {sorted(unknown)}"
            )
        unknown = set(self.engine) - engine_keys()
        if unknown:
            raise ExplorationError(
                f"unknown engine option(s): {sorted(unknown)}; "
                f"available: {sorted(engine_keys())}"
            )
        if self.engine.get("backend", BACKEND) != BACKEND:
            raise ExplorationError(
                f"engine option 'backend' accepts only {BACKEND!r}, "
                f"not {self.engine['backend']!r}"
            )
        self.label = label or self.default_label()

    # -- identity ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "case": self.case,
            "sizes": dict(self.sizes),
            "problem": dict(self.problem),
            "engine": dict(self.engine),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        return cls(
            data["case"],
            sizes=data.get("sizes"),
            problem=data.get("problem"),
            engine=data.get("engine"),
            label=data.get("label", ""),
        )

    @property
    def job_id(self) -> str:
        """Deterministic content-addressed id (stable across processes)."""
        payload = {
            "case": self.case,
            "sizes": self.sizes,
            "problem": self.problem,
            "engine": self.engine,
        }
        return text_key("job", json.dumps(payload, sort_keys=True))[:16]

    def default_label(self) -> str:
        sizes = ",".join(
            str(self.sizes.get(name, "-")) for name in CASE_SIZE_ARGS[self.case]
        )
        scenario = self.engine.get("scenario", "")
        suffix = f" {scenario}" if scenario else ""
        return f"{self.case}({sizes}){suffix}"

    def __repr__(self) -> str:
        return f"JobSpec({self.label!r}, id={self.job_id})"

    # -- materialization -------------------------------------------------------

    def build_problem(self):
        """Rebuild (mapping_template, specification) from the spec."""
        from repro.casestudies import epn, rpl, wsn

        builders = {
            "rpl": rpl.build_problem,
            "epn": epn.build_problem,
            "wsn": wsn.build_problem,
        }
        kwargs: Dict[str, Any] = dict(self.problem)
        kwargs.update(self.sizes)
        return builders[self.case](**kwargs)

    def engine_kwargs(self) -> Dict[str, Any]:
        """Explorer constructor kwargs, with ``scenario`` expanded and
        ``backend`` left out."""
        kwargs = dict(self.engine)
        kwargs.pop("backend", None)
        scenario = kwargs.pop("scenario", None)
        if scenario is not None:
            if scenario not in SCENARIOS:
                raise ExplorationError(
                    f"unknown scenario {scenario!r}; "
                    f"available: {sorted(SCENARIOS)}"
                )
            flags = dict(SCENARIOS[scenario])
            flags.update(kwargs)
            kwargs = flags
        return kwargs

    def make_explorer(self, oracle=None, time_limit=None, tracer=None):
        """Build a ready-to-run explorer for this job.

        ``time_limit`` replaces the spec's own budget *without* entering
        the job id — the seam the worker uses to clamp the run to its
        deadline while keeping the spec, and therefore telemetry joins,
        untouched. ``tracer`` likewise stays out of the id:
        observability must never change which jobs are cached.
        """
        from repro.explore.engine import ContrArcExplorer

        mapping_template, specification = self.build_problem()
        kwargs = self.engine_kwargs()
        if time_limit is not None:
            kwargs["time_limit"] = time_limit
        return ContrArcExplorer(
            mapping_template, specification, oracle=oracle, tracer=tracer, **kwargs
        )


class JobResult:
    """Machine-readable outcome of one job."""

    __slots__ = (
        "job_id",
        "spec",
        "status",
        "cost",
        "selected",
        "stats",
        "cache",
        "error",
        "attempts",
        "duration",
    )

    def __init__(
        self,
        job_id: str,
        spec: JobSpec,
        status: str,
        cost: Optional[float] = None,
        selected: Optional[Dict[str, str]] = None,
        stats: Optional[Dict[str, Any]] = None,
        cache: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
        attempts: int = 1,
        duration: float = 0.0,
    ) -> None:
        self.job_id = job_id
        self.spec = spec
        self.status = status
        self.cost = cost
        self.selected = dict(selected or {})
        self.stats = dict(stats or {})
        self.cache = dict(cache or {})
        self.error = error
        self.attempts = attempts
        self.duration = duration

    @property
    def ok(self) -> bool:
        return self.status == "optimal"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_dict(),
            "status": self.status,
            "cost": self.cost,
            "selected": dict(self.selected),
            "stats": dict(self.stats),
            "cache": dict(self.cache),
            "error": self.error,
            "attempts": self.attempts,
            "duration": self.duration,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobResult":
        return cls(
            data["job_id"],
            JobSpec.from_dict(data["spec"]),
            data["status"],
            cost=data.get("cost"),
            selected=data.get("selected"),
            stats=data.get("stats"),
            cache=data.get("cache"),
            error=data.get("error"),
            attempts=data.get("attempts", 1),
            duration=data.get("duration", 0.0),
        )

    @classmethod
    def from_exploration(
        cls,
        spec: JobSpec,
        result,
        cache: Optional[Dict[str, Any]] = None,
        attempts: int = 1,
        duration: float = 0.0,
    ) -> "JobResult":
        """Build the record from an :class:`ExplorationResult`."""
        selected = {}
        if result.architecture is not None:
            selected = {
                name: impl.name
                for name, impl in sorted(result.architecture.selected_impls.items())
            }
        return cls(
            spec.job_id,
            spec,
            result.status.value,
            cost=result.cost,
            selected=selected,
            stats=result.stats.to_dict(),
            cache=cache,
            attempts=attempts,
            duration=duration,
        )

    def __repr__(self) -> str:
        return (
            f"JobResult({self.spec.label!r}, {self.status}, "
            f"cost={self.cost}, {self.duration:.2f}s)"
        )
