"""Exploration statistics (feeds the Table II columns)."""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class IterationRecord:
    """What happened in one candidate-select/refine/prune round.

    The three times sum the iteration's phase spans: ``milp_time`` is
    ``matrix_build`` + ``milp_solve``, ``refinement_time`` is
    ``refinement`` and ``certificate_time`` is ``certificate_build``
    (its nested ``embedding`` spans included once).
    """

    __slots__ = (
        "index",
        "milp_time",
        "refinement_time",
        "certificate_time",
        "candidate_cost",
        "violated_viewpoint",
        "violations",
        "cuts_added",
        "verification",
    )

    def __init__(
        self,
        index: int,
        milp_time: float = 0.0,
        refinement_time: float = 0.0,
        certificate_time: float = 0.0,
        candidate_cost: Optional[float] = None,
        violated_viewpoint: Optional[str] = None,
        violations: Optional[List[Dict[str, Any]]] = None,
        cuts_added: int = 0,
        verification: Optional[Dict[str, int]] = None,
    ) -> None:
        self.index = index
        self.milp_time = milp_time
        self.refinement_time = refinement_time
        self.certificate_time = certificate_time
        self.candidate_cost = candidate_cost
        #: Name of the first violated viewpoint (back-compat summary).
        self.violated_viewpoint = violated_viewpoint
        #: Every violated (viewpoint, path) pair of the iteration, in
        #: check order: ``[{"viewpoint": name, "path": [...] | None}]``.
        #: ``path`` is ``None`` for whole-candidate checks.
        self.violations = list(violations or [])
        self.cuts_added = cuts_added
        #: Plan-entry provenance tally under dependency-sliced
        #: verification (see repro.explore.incremental): ``{"checks": n,
        #: "verified": ..., "cache_hit": ..., "carried": ...}``;
        #: ``None`` when the run verified from scratch.
        self.verification = dict(verification) if verification else None

    @property
    def total_time(self) -> float:
        return self.milp_time + self.refinement_time + self.certificate_time

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible record (one telemetry/reporting row)."""
        data: Dict[str, Any] = {
            "index": self.index,
            "milp_time": self.milp_time,
            "refinement_time": self.refinement_time,
            "certificate_time": self.certificate_time,
            "total_time": self.total_time,
            "candidate_cost": self.candidate_cost,
            "violated_viewpoint": self.violated_viewpoint,
            "violations": [dict(v) for v in self.violations],
            "cuts_added": self.cuts_added,
        }
        if self.verification is not None:
            data["verification"] = dict(self.verification)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "IterationRecord":
        return cls(
            data["index"],
            milp_time=data.get("milp_time", 0.0),
            refinement_time=data.get("refinement_time", 0.0),
            certificate_time=data.get("certificate_time", 0.0),
            candidate_cost=data.get("candidate_cost"),
            violated_viewpoint=data.get("violated_viewpoint"),
            violations=data.get("violations"),
            cuts_added=data.get("cuts_added", 0),
            verification=data.get("verification"),
        )

    def __repr__(self) -> str:
        verdict = self.violated_viewpoint or "accepted"
        return (
            f"IterationRecord(#{self.index}, {verdict}, "
            f"{self.total_time:.3f}s, +{self.cuts_added} cuts)"
        )


class ExplorationStats:
    """Aggregate statistics for one exploration run."""

    def __init__(self) -> None:
        self.iterations: List[IterationRecord] = []
        #: Duration of the run's ``run`` span.
        self.total_time: float = 0.0
        #: Model size at iteration 1, before any certificate cuts.
        self.milp_variables: int = 0
        self.milp_constraints: int = 0
        #: Model size when exploration ended — the cut-augmented model
        #: actually solved in the last iteration.
        self.final_milp_variables: int = 0
        self.final_milp_constraints: int = 0
        self.total_cuts: int = 0
        #: Per-phase breakdown of the run: ``{"totals": seconds,
        #: "counts": spans, "counters": events}``, the run's delta of its
        #: tracer's metrics. ``None`` only in records that predate it.
        self.phase_profile: Optional[Dict[str, Any]] = None
        #: Oracle cache hit/miss/store/uncacheable totals for this run
        #: (the engine records the per-run delta of the checker's
        #: oracle, so shared oracles report only this run's traffic).
        #: Previously these figures were only visible via ``JobResult``
        #: in sweeps; now every ``to_dict`` serialization carries them.
        self.oracle_cache: Optional[Dict[str, Any]] = None

    @property
    def verification(self) -> Optional[Dict[str, int]]:
        """Run-total plan-entry provenance, or ``None`` without slicing."""
        tallies = [
            r.verification for r in self.iterations if r.verification
        ]
        if not tallies:
            return None
        totals: Dict[str, int] = {}
        for tally in tallies:
            for key, value in tally.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    @property
    def milp_time(self) -> float:
        return sum(r.milp_time for r in self.iterations)

    @property
    def refinement_time(self) -> float:
        return sum(r.refinement_time for r in self.iterations)

    @property
    def certificate_time(self) -> float:
        return sum(r.certificate_time for r in self.iterations)

    def record(self, record: IterationRecord) -> None:
        self.iterations.append(record)
        self.total_cuts += record.cuts_added

    def to_dict(self) -> Dict[str, Any]:
        """One serialization path for telemetry and reporting.

        The aggregate wall-clock totals (overall and per phase) are
        materialized alongside the raw per-iteration rows so consumers
        never re-derive them from ad-hoc attribute reads.
        """
        data: Dict[str, Any] = {
            "num_iterations": self.num_iterations,
            "total_time": self.total_time,
            "milp_time": self.milp_time,
            "refinement_time": self.refinement_time,
            "certificate_time": self.certificate_time,
            "milp_variables": self.milp_variables,
            "milp_constraints": self.milp_constraints,
            "final_milp_variables": self.final_milp_variables,
            "final_milp_constraints": self.final_milp_constraints,
            "total_cuts": self.total_cuts,
        }
        if self.phase_profile is not None:
            data["phase_profile"] = self.phase_profile
        if self.oracle_cache is not None:
            data["oracle_cache"] = self.oracle_cache
        verification = self.verification
        if verification is not None:
            data["verification"] = verification
        data["iterations"] = [r.to_dict() for r in self.iterations]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExplorationStats":
        stats = cls()
        for row in data.get("iterations", []):
            stats.record(IterationRecord.from_dict(row))
        stats.total_time = data.get("total_time", 0.0)
        stats.milp_variables = data.get("milp_variables", 0)
        stats.milp_constraints = data.get("milp_constraints", 0)
        stats.final_milp_variables = data.get("final_milp_variables", 0)
        stats.final_milp_constraints = data.get("final_milp_constraints", 0)
        stats.phase_profile = data.get("phase_profile")
        stats.oracle_cache = data.get("oracle_cache")
        return stats

    def __repr__(self) -> str:
        return (
            f"ExplorationStats(iterations={self.num_iterations}, "
            f"time={self.total_time:.3f}s, cuts={self.total_cuts}, "
            f"milp={self.milp_variables}x{self.milp_constraints})"
        )
