"""Compositional exploration (Section V-A, Fig. 5b).

ContrArc can decompose a system into subsystems, synthesize each with a
separate (much smaller) exploration problem, and discharge the
cross-subsystem obligations by contract refinement: each later stage is
synthesized against an *abstraction* of the earlier stages (the paper's
"Comb B" aggregate component), and compatibility is verified by checking
that the synthesized subsystem's composed contracts refine the
abstraction's contract.

The decomposition itself is domain knowledge, so this module provides
the generic sequencing machinery; the RPL case study wires the concrete
split (line A against an aggregated line B, then line B proper).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import ExplorationError
from repro.arch.template import MappingTemplate
from repro.explore.engine import (
    ContrArcExplorer,
    ExplorationResult,
    ExplorationStatus,
)
from repro.obs.trace import Tracer
from repro.spec.base import Specification

#: A stage builder receives the results of all earlier stages and
#: returns the exploration problem for this stage.
StageBuilder = Callable[
    [Dict[str, ExplorationResult]], Tuple[MappingTemplate, Specification]
]
#: A compatibility check receives all stage results and returns whether
#: the composed subsystems honour the interface contracts.
CompatibilityCheck = Callable[[Dict[str, ExplorationResult]], bool]


class SubsystemStage:
    """One subsystem synthesis step."""

    __slots__ = ("name", "build", "compatibility_check")

    def __init__(
        self,
        name: str,
        build: StageBuilder,
        compatibility_check: Optional[CompatibilityCheck] = None,
    ) -> None:
        self.name = name
        self.build = build
        self.compatibility_check = compatibility_check

    def __repr__(self) -> str:
        return f"SubsystemStage({self.name!r})"


class CompositionalResult:
    """Per-stage results plus aggregate accounting."""

    __slots__ = ("stage_results", "total_time", "compatible")

    def __init__(
        self,
        stage_results: Dict[str, ExplorationResult],
        total_time: float,
        compatible: bool,
    ) -> None:
        self.stage_results = stage_results
        self.total_time = total_time
        self.compatible = compatible

    @property
    def is_optimal(self) -> bool:
        return self.compatible and all(
            r.status is ExplorationStatus.OPTIMAL for r in self.stage_results.values()
        )

    @property
    def total_cost(self) -> Optional[float]:
        costs = [r.cost for r in self.stage_results.values()]
        if any(c is None for c in costs):
            return None
        return sum(costs)

    @property
    def total_iterations(self) -> int:
        return sum(r.stats.num_iterations for r in self.stage_results.values())

    def __repr__(self) -> str:
        return (
            f"CompositionalResult(stages={list(self.stage_results)}, "
            f"cost={self.total_cost}, time={self.total_time:.3f}s, "
            f"compatible={self.compatible})"
        )


class CompositionalExplorer:
    """Runs subsystem stages in sequence with ContrArc."""

    def __init__(
        self,
        stages: List[SubsystemStage],
        backend: str = "scipy",
        use_isomorphism: bool = True,
        use_decomposition: bool = True,
        max_iterations: int = 1000,
    ) -> None:
        if not stages:
            raise ExplorationError("need at least one subsystem stage")
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise ExplorationError(f"duplicate stage names: {names}")
        self.stages = list(stages)
        self.backend = backend
        self.use_isomorphism = use_isomorphism
        self.use_decomposition = use_decomposition
        self.max_iterations = max_iterations

    def explore(self) -> CompositionalResult:
        """Run the stages in order, stopping at the first that is not
        optimal or fails its compatibility check.

        All stages share one sink-less tracer: each stage's ``run`` span
        sits inside a ``stage`` span, and ``total_time`` is the root
        span's duration.
        """
        tracer = Tracer()
        results: Dict[str, ExplorationResult] = {}
        compatible = True
        with tracer.span("compositional") as root:
            for stage in self.stages:
                with tracer.span("stage", stage=stage.name):
                    mapping_template, specification = stage.build(results)
                    result = ContrArcExplorer(
                        mapping_template,
                        specification,
                        backend=self.backend,
                        use_isomorphism=self.use_isomorphism,
                        use_decomposition=self.use_decomposition,
                        max_iterations=self.max_iterations,
                        tracer=tracer,
                    ).explore()
                results[stage.name] = result
                if result.status is not ExplorationStatus.OPTIMAL:
                    break
                check = stage.compatibility_check
                if check is not None and not check(results):
                    compatible = False
                    break
        return CompositionalResult(results, root.duration, compatible)
