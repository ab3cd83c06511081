"""The ContrArc exploration engine and baselines."""

from repro.explore.encoding import (
    Cut,
    build_candidate_milp,
    cost_expression,
    exclude_candidate_cut,
)
from repro.explore.refinement_check import (
    RefinementCheck,
    RefinementChecker,
    Violation,
)
from repro.explore.certificates import generate_cuts, implementation_search
from repro.explore.engine import (
    ContrArcExplorer,
    ExplorationResult,
    ExplorationStatus,
)
from repro.explore.stats import ExplorationStats, IterationRecord
from repro.explore.baseline import (
    MonolithicExplorer,
    lazy_nogood_explorer,
    worst_case_path_latency,
)
from repro.explore.compositional import (
    CompositionalExplorer,
    CompositionalResult,
    SubsystemStage,
)
from repro.explore.audit import (
    ArchitectureAudit,
    AuditEntry,
    audit_architecture,
)

__all__ = [
    "ArchitectureAudit",
    "AuditEntry",
    "audit_architecture",
    "MonolithicExplorer",
    "lazy_nogood_explorer",
    "worst_case_path_latency",
    "CompositionalExplorer",
    "CompositionalResult",
    "SubsystemStage",
    "Cut",
    "build_candidate_milp",
    "cost_expression",
    "exclude_candidate_cut",
    "RefinementCheck",
    "RefinementChecker",
    "Violation",
    "generate_cuts",
    "implementation_search",
    "ContrArcExplorer",
    "ExplorationResult",
    "ExplorationStatus",
    "ExplorationStats",
    "IterationRecord",
]
