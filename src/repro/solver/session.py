"""Persistent MILP sessions for the exploration hot loop.

`ContrArcExplorer.explore()` re-solves one model per iteration, and the
only mutation between solves is appended certificate cuts: the few the
last candidate violated, or, once a candidate violates a pooled cut,
the whole lazy cut pool at once (:mod:`repro.explore.cut_pool`). Either
way rows are only appended, never removed.

:class:`IncrementalSession` keeps one vendored HiGHS instance
(``scipy.optimize._highspy``) alive across those solves, instead of
loading the whole model into a fresh one per solve. It receives the
model once via ``passModel`` (built by
:func:`repro.solver.scipy_backend.highs_lp`) and afterwards only
``addVars``/``addRows`` calls for the appended cut variables/rows, read
from the CSR blocks that ``Model.to_matrix_form`` extends append-only.
Along an append-only chain the optimum is monotone non-decreasing (rows
only shrink the feasible set and appended columns carry zero
objective), so the previous optimal value is replayed as HiGHS's
``objective_target``: branch-and-cut stops at the first incumbent
matching the plateau value instead of re-proving the dual bound. Any
non-append mutation falls back to a full ``passModel`` rebuild (which
also clears the target), and if the vendored module is missing the
session degrades to per-call ``scipy.optimize.milp``. The instance
comes from :func:`repro.solver.scipy_backend.new_highs`, with the
options of every other solve.

Sessions affect *how fast* a solve finishes, never the optimal value
(the regression suite pins equal costs with from-scratch HiGHS
solves), and a session holds its rows in one order whether or not an
oracle answered earlier solves, so caching does not move tie-breaks.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.obs.trace import Tracer
from repro.solver import scipy_backend
from repro.solver.model import CsrRows, MatrixForm, Model, Snapshot
from repro.solver.result import SolveResult, SolveStatus


class IncrementalSession:
    """A persistent solver bound to one append-only :class:`Model`.

    Create one per exploration run and call :meth:`solve` each
    iteration. The session watches the model's revision counter: when
    every mutation since the last solve was an append (new variables
    and/or constraints), solver state is extended in place; anything
    else triggers a transparent full rebuild.

    Each solve opens two phase spans on :attr:`tracer`: model-sync work
    is ``matrix_build`` and the solver run is ``milp_solve``.

    Solves run without a time limit: the exploration engine checks its
    ``time_limit`` between iterations only, so one long candidate solve
    is not cut short by it.
    """

    def __init__(self, model: Model) -> None:
        self.model = model
        #: The :class:`repro.obs.trace.Tracer` timing each solve; the
        #: exploration engine binds its run's tracer here.
        self.tracer = Tracer()
        #: Diagnostics: how often the fast append path was taken vs a
        #: full rebuild. Read by tests and reports. Without the vendored
        #: HiGHS every solve is a fresh ``milp`` run, so a rebuild.
        self.appends = 0
        self.rebuilds = 0
        self._impl: Optional[_HighsSession] = (
            _HighsSession(model) if scipy_backend._highs_core is not None else None
        )

    def solve(self) -> SolveResult:
        """Solve the bound model, reusing solver state where possible."""
        tracer = self.tracer
        if self._impl is None:
            self.rebuilds += 1
            with tracer.phase("matrix_build"):
                form = self.model.to_matrix_form()
            with tracer.phase("milp_solve"):
                result = scipy_backend.solve_matrix(form)
        else:
            with tracer.phase("matrix_build") as span:
                self._impl.sync(self.model)
                span.attrs["sync"] = (
                    "append" if self._impl.last_was_append else "rebuild"
                )
            if self._impl.last_was_append:
                self.appends += 1
            else:
                self.rebuilds += 1
            with tracer.phase("milp_solve") as span:
                result = self._impl.solve(self.model)
                span.attrs.update(
                    variables=self.model.num_variables,
                    constraints=self.model.num_constraints,
                )
        if (
            result.is_optimal
            and not self.model.minimize
            and result.objective is not None
        ):
            result.objective = -result.objective
        return result

    def as_solver(self) -> Callable[[Model], SolveResult]:
        """Adapt to the ``solve(model)`` backend signature, for the
        bound model only.

        This keeps the oracle seam unchanged:
        ``oracle.wrap_solver("scipy", session.as_solver())`` caches on
        ``model_key`` exactly as it would around the plain backend.
        """

        def solve(model: Model) -> SolveResult:
            if model is not self.model:
                raise ValueError("a session solves only the model it is bound to")
            return self.solve()

        return solve


class _HighsSession:
    """One long-lived HiGHS instance fed by passModel + addVars/addRows.

    After the initial ``passModel``, the rows appended to the model's
    matrix form go in as one ``addRows`` call per CSR block — HiGHS's
    work is proportional to the new rows' nonzeros, independent of
    model size.

    A MIP start is deliberately *not* replayed: in the exploration loop
    the appended cuts exclude the previous optimum by construction, and
    feeding HiGHS an infeasible start measurably slows it down (it
    attempts sub-MIP repair). The previous optimal *value* is sound
    regardless — appends can only raise the minimize-normalized optimum
    — and goes in as ``objective_target`` so plateau solves terminate at
    the first matching incumbent.

    The tied optimum HiGHS returns depends on its row order, so a
    rebuild loads the model's *base* (as bound, or as of its last
    non-append mutation) and appends the rest, as an append chain would:
    solves an oracle answered instead do not reorder the rows.
    """

    #: Slack added to the monotone objective target; an early-exit
    #: incumbent is optimal to within this absolute error (well inside
    #: HiGHS's own default 1e-4 relative MIP gap).
    _TARGET_TOL = 1e-6

    #: True when the most recent sync reused state via pure appends.
    last_was_append = False

    def __init__(self, model: Model) -> None:
        self._h = scipy_backend.new_highs()
        #: The model's snapshot and matrix form at its base.
        self._base = (model.snapshot(), model.to_matrix_form())
        #: The model's :meth:`~repro.solver.model.Model.snapshot` at the
        #: last sync; None before the first.
        self._snapshot: Optional[Snapshot] = None
        #: The model's matrix form at the last sync: the rows HiGHS
        #: holds, and the minimize-normalized objective that prices
        #: solutions.
        self._form: Optional[MatrixForm] = None
        #: Minimize-normalized optimum of the previous solve along the
        #: current append-only chain; None right after a full rebuild.
        self._prev_obj: Optional[float] = None

    # -- sync ---------------------------------------------------------------

    def sync(self, model: Model) -> None:
        form = model.to_matrix_form()
        self.last_was_append = model.appended_since(self._snapshot)
        if not self.last_was_append:
            if not model.appended_since(self._base[0]):
                self._base = (model.snapshot(), form)
            self._form = self._base[1]
            self._h.passModel(scipy_backend.highs_lp(self._form))
            # Monotonicity only holds along an append chain; a rebuild
            # may have relaxed anything.
            self._prev_obj = None
            self._h.setOptionValue(
                "objective_target", -scipy_backend._highs_core.kHighsInf
            )
        self._append(form)
        self._snapshot = model.snapshot()
        self._form = form

    def _append(self, form: MatrixForm) -> None:
        """Push the variables and rows appended since the last sync.

        Under the append-only invariant the objective is untouched, so
        every new column has cost zero; its constraint coefficients
        arrive with the new rows. The rows come from ``form``'s CSR
        blocks, one ``addRows`` call per block.
        """
        core = scipy_backend._highs_core
        num_vars = self._form.num_variables
        added = form.num_variables - num_vars
        if added:
            self._h.addVars(added, form.lower[num_vars:], form.upper[num_vars:])
            self._h.changeColsIntegrality(
                added,
                np.arange(num_vars, form.num_variables, dtype=np.int32),
                form.integrality[num_vars:].astype(np.uint8),
            )
        num_ub, num_eq = self._form.a_ub.shape[0], self._form.a_eq.shape[0]
        ub_lower = np.full(form.a_ub.shape[0] - num_ub, -core.kHighsInf)
        self._add_rows(form.a_ub, num_ub, ub_lower, form.b_ub[num_ub:])
        self._add_rows(form.a_eq, num_eq, form.b_eq[num_eq:], form.b_eq[num_eq:])

    def _add_rows(
        self, rows: CsrRows, start: int, lower: np.ndarray, upper: np.ndarray
    ) -> None:
        """Send ``rows`` from row ``start`` on, bounded by ``lower``/``upper``."""
        if rows.shape[0] > start:
            first = rows.indptr[start]
            self._h.addRows(
                rows.shape[0] - start,
                lower,
                upper,
                rows.indptr[-1] - first,
                rows.indptr[start:-1] - first,
                rows.indices[first:],
                rows.data[first:],
            )

    # -- solve ----------------------------------------------------------------

    def solve(self, model: Model) -> SolveResult:
        if model.num_variables == 0:
            return scipy_backend.solve(model)
        if self._prev_obj is not None:
            self._h.setOptionValue(
                "objective_target",
                self._prev_obj - self._form.objective_constant + self._TARGET_TOL,
            )
        self._h.run()
        return self._extract(model)

    def _extract(self, model: Model) -> SolveResult:
        core = scipy_backend._highs_core
        status = self._h.getModelStatus()
        ms = core.HighsModelStatus
        if status in (ms.kOptimal, ms.kObjectiveTarget):
            # kObjectiveTarget: an incumbent at (or below) the previous
            # optimum along this append chain — optimal by monotonicity,
            # to within _TARGET_TOL.
            x = np.asarray(self._h.getSolution().col_value, dtype=float)
            integral = self._form.integrality.astype(bool)
            # "+ 0.0" turns a rounded -0.0 into 0.0, as Python's round did.
            x[integral] = np.round(x[integral]) + 0.0
            assignment = dict(zip(model.variables, x.tolist()))
            objective = float(self._form.objective @ x) + self._form.objective_constant
            if status == ms.kOptimal:
                self._prev_obj = objective
            # On a target exit keep the previously *proven* bound: the
            # incumbent may sit up to _TARGET_TOL above it, and advancing
            # the target from incumbents would let that slack accumulate.
            return SolveResult(SolveStatus.OPTIMAL, objective, assignment)
        if status == ms.kInfeasible:
            return SolveResult(SolveStatus.INFEASIBLE, message="highs session")
        if status in (ms.kUnbounded, ms.kUnboundedOrInfeasible):
            return SolveResult(SolveStatus.UNBOUNDED, message="highs session")
        if status in (ms.kTimeLimit, ms.kIterationLimit, ms.kSolutionLimit):
            return SolveResult(
                SolveStatus.ITERATION_LIMIT, message="highs session limit"
            )
        return SolveResult(SolveStatus.ERROR, message=str(status))
