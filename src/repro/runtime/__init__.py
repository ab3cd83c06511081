"""Parallel batch-exploration runtime.

Turns the one-script-at-a-time ContrArc loop into a schedulable
workload:

* :mod:`repro.runtime.job`       — :class:`JobSpec`/:class:`JobResult`,
  deterministic job ids;
* :mod:`repro.runtime.scheduler` — process-pool fan-out with timeout,
  retry-on-crash and graceful cancellation;
* :mod:`repro.runtime.oracle`    — content-addressed memo for
  refinement/satisfiability queries and candidate MILP solves;
* :mod:`repro.runtime.store`     — SQLite persistence so repeated
  sweeps warm-start;
* :mod:`repro.runtime.keys`      — canonical hashing of formulas and
  MILP matrices;
* :mod:`repro.runtime.telemetry` — structured JSONL run events;
* :mod:`repro.runtime.ledger`    — durable run ledger over the journal
  (``sweep --resume``);
* :mod:`repro.runtime.faults`    — deterministic fault injection for
  chaos tests;
* :mod:`repro.runtime.sweep`     — Table II / Fig. 5 grids and result
  aggregation.
"""

from repro.runtime.job import JobResult, JobSpec, SCENARIOS
from repro.runtime.ledger import (
    canonical_record,
    completed_records,
    load_ledger,
    plan_resume,
)
from repro.runtime.keys import (
    canonical_formula,
    formula_key,
    model_key,
)
from repro.runtime.oracle import OracleCache, OracleStats
from repro.runtime.scheduler import Scheduler, default_workers
from repro.runtime.store import SQLiteStore
from repro.runtime.sweep import (
    GRIDS,
    SweepReport,
    fig5_rpl_grid,
    run_sweep,
    table2_grid,
    wsn_grid,
)
from repro.runtime.telemetry import (
    NullTelemetry,
    TelemetryLogger,
    iter_events,
    read_events,
    tail_events,
)
from repro.runtime.worker import run_job

__all__ = [
    "JobResult",
    "JobSpec",
    "SCENARIOS",
    "canonical_record",
    "completed_records",
    "load_ledger",
    "plan_resume",
    "canonical_formula",
    "formula_key",
    "model_key",
    "OracleCache",
    "OracleStats",
    "Scheduler",
    "default_workers",
    "SQLiteStore",
    "GRIDS",
    "SweepReport",
    "fig5_rpl_grid",
    "run_sweep",
    "table2_grid",
    "wsn_grid",
    "NullTelemetry",
    "TelemetryLogger",
    "iter_events",
    "read_events",
    "tail_events",
    "run_job",
]
