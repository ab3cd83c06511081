"""Content-addressed cache keys for solver oracle queries.

The runtime memoizes two kinds of oracle calls:

* satisfiability queries over :class:`repro.expr.constraints.Formula`
  trees (the refinement checks of Algorithm 1), and
* full MILP solves of :class:`repro.solver.model.Model` instances (the
  Problem-2 candidate selection, including accumulated cuts).

Both are keyed by a SHA-256 digest of a *canonical text form* of the
query. Variables are identified by ``(name, domain, bounds)`` — never by
the interpreter-level identity the in-process representation uses — so
the same problem built twice, or built in two different worker
processes, hashes to the same key. Coefficient maps are sorted by
variable name, and floats are rendered through :func:`repr` (shortest
round-trip form), which is stable across CPython processes and
platforms.

The exploration loop keys its candidate MILP once per iteration, and
between two calls the model only grows by a few cut rows. So
:func:`model_key` keeps the canonical text of each model it has keyed in
a memo held weakly on the :class:`~repro.solver.model.Model` (it dies
with the model, and :meth:`~repro.solver.model.Model.copy` starts
without one): every constraint's text by index, every variable's text,
and the name-sorted variable text. When
:meth:`~repro.solver.model.Model.appended_since` says only appends
happened since the memo's snapshot, only the new rows are rendered (and
the variable text is re-sorted only if a variable was added); any other
mutation, such as ``set_objective``, renders the model afresh. Either
way the same text is hashed in the same order, so a key never depends
on the memo and on-disk oracles written before it stay warm.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Callable, Dict, List, Optional

from repro.expr.constraints import (
    And,
    BoolAtom,
    BoolConst,
    Comparison,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
)
from repro.expr.terms import LinExpr, Var
from repro.solver.model import Model, Snapshot


def _num(value: float) -> str:
    """Canonical text for a float (shortest round-trip repr)."""
    return repr(float(value))


def canonical_var(var: Var) -> str:
    """Canonical text for a variable: name, domain and bounds.

    The per-process ``_uid`` is deliberately excluded — identity must
    survive rebuilding the problem in another process.
    """
    return f"{var.name}:{var.domain.value}:[{_num(var.lb)},{_num(var.ub)}]"


def canonical_expr(
    expr: LinExpr, var_text: Callable[[Var], str] = canonical_var
) -> str:
    """Canonical text for an affine expression (terms sorted by name).

    ``var_text`` renders one variable; :func:`model_key` passes its
    memo's lookup so a row re-renders none of its variables.
    """
    terms = ",".join(
        f"{_num(coef)}*{var_text(var)}"
        for var, coef in sorted(expr.coeffs.items(), key=lambda kv: kv[0].name)
    )
    return f"({terms}+{_num(expr.constant)})"


def canonical_formula(formula: Formula) -> str:
    """Canonical S-expression for a formula tree."""
    if isinstance(formula, BoolConst):
        return "T" if formula.value else "F"
    if isinstance(formula, Comparison):
        return f"(cmp {formula.sense.value} {canonical_expr(formula.expr)})"
    if isinstance(formula, BoolAtom):
        return f"(atom {canonical_var(formula.var)})"
    if isinstance(formula, Not):
        return f"(not {canonical_formula(formula.child)})"
    if isinstance(formula, (And, Or)):
        op = "and" if isinstance(formula, And) else "or"
        inner = " ".join(canonical_formula(c) for c in formula.children)
        return f"({op} {inner})"
    if isinstance(formula, Implies):
        return (
            f"(implies {canonical_formula(formula.antecedent)} "
            f"{canonical_formula(formula.consequent)})"
        )
    if isinstance(formula, Iff):
        return (
            f"(iff {canonical_formula(formula.left)} "
            f"{canonical_formula(formula.right)})"
        )
    raise TypeError(f"cannot canonicalize {type(formula).__name__}")


def _digest(*parts: str) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


def formula_key(
    formula: Formula,
    backend: str = "",
    default_big_m: Optional[float] = None,
) -> str:
    """Cache key for a satisfiability query.

    The backend and big-M relaxation are part of the key: a different
    backend or relaxation may legitimately answer borderline queries
    differently, and a cache must never launder one configuration's
    answer into another's.
    """
    big_m = "" if default_big_m is None else _num(default_big_m)
    return _digest("sat", backend, big_m, canonical_formula(formula))


class _KeyMemo:
    """The canonical text of one model as of :attr:`snapshot`."""

    __slots__ = ("snapshot", "var_text", "variables", "rows", "objective")

    def __init__(self, model: Model) -> None:
        #: Each variable's :func:`canonical_var` text.
        self.var_text: Dict[Var, str] = {}
        #: The variable text joined in name order, as hashed.
        self.variables = ""
        #: Each constraint's text, by index.
        self.rows: List[str] = []
        self.objective = (
            f"{'min' if model.minimize else 'max'} "
            f"{canonical_expr(model.objective)}"
        )
        self.snapshot: Snapshot = (0, 0, 0)
        self.extend(model)

    def extend(self, model: Model) -> None:
        """Render what was appended to ``model`` since :attr:`snapshot`."""
        _, num_vars, num_cons = self.snapshot
        variables = model.variables
        if len(variables) > num_vars:
            var_text = self.var_text
            for var in variables[num_vars:]:
                var_text[var] = canonical_var(var)
            self.variables = ";".join(
                var_text[v] for v in sorted(variables, key=lambda v: v.name)
            )
        text = self.var_text.__getitem__
        self.rows.extend(
            f"({c.sense.value} {canonical_expr(c.expr, text)} {_num(c.rhs)})"
            for c in model.constraints[num_cons:]
        )
        self.snapshot = model.snapshot()


#: Model -> its key memo; weak, so a memo dies with its model.
_MEMO: weakref.WeakKeyDictionary[Model, _KeyMemo] = weakref.WeakKeyDictionary()


def model_key(model: Model, backend: str = "") -> str:
    """Cache key for a full MILP solve.

    Hashes the complete mathematical content — variables with domains
    and bounds, every constraint row, the objective and its sense — but
    not model/constraint *names*, so a rebuilt model with identical
    mathematics warm-starts from a previous run's answer. Constraint
    order is preserved (it is deterministic per build and cheap to keep).
    A repeated call renders only the rows appended since the last one
    (see the module docstring).
    """
    memo = _MEMO.get(model)
    if memo is not None and model.appended_since(memo.snapshot):
        memo.extend(model)
    else:
        memo = _MEMO[model] = _KeyMemo(model)
    return _digest(
        "milp", backend, memo.variables, ";".join(memo.rows), memo.objective
    )


def text_key(*parts: str) -> str:
    """Generic digest over text parts (used for job ids)."""
    return _digest(*parts)
