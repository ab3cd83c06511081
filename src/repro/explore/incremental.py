"""Dependency-sliced incremental refinement verification.

Successive exploration candidates differ by a handful of component
mappings, yet Algorithm 1 re-verifies every (viewpoint, path) pair per
candidate from scratch. The oracle cache already proves the underlying
sat queries repeat across iterations — but even a cache *hit* pays for
contract substitution, composition and canonical hashing first. This module
closes the gap one level up, at the plan-entry granularity:

* :class:`DependencySlicer` computes, for each plan entry, a *dependency
  fingerprint*: the exact slice of the candidate assignment the entry's
  substituted contracts depend on (the support variables of the
  unsubstituted component and system contracts, which are pure per
  (viewpoint, component/path) and cached by the checker). Substitution
  and composition are pure functions of (cached unsubstituted
  contracts, restricted assignment), so two candidates with equal
  fingerprints produce byte-identical refinement queries — and hence
  identical verdicts.

* :class:`IterationDelta` diffs consecutive candidates' fingerprints
  per (viewpoint, path) pair and carries the previous verdict forward
  whenever the slice is unchanged, skipping substitution, composition,
  hashing *and* the oracle round-trip entirely.

Witnesses attached to carried verdicts are the previous iteration's —
the certificate generator uses them only as diagnostic payload (the cut
itself is structural, see :mod:`repro.contracts.refinement`), so the
produced cuts, costs and iteration trajectories are bit-identical to
scratch verification (pinned by
``tests/test_explore/test_incremental_verification.py``).

Fingerprints deliberately exclude the ``check_assumptions`` flag: a
delta instance belongs to exactly one
:class:`~repro.explore.refinement_check.RefinementChecker`, whose
configuration is fixed for its lifetime.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Plan-entry provenance labels recorded per iteration (see
#: ``IterationRecord.verification``).
VERIFIED = "verified"      # at least one sat query actually solved
CACHE_HIT = "cache_hit"    # verified, but every sat query came from the oracle
CARRIED = "carried"        # verdict carried forward; no queries issued

PairId = Tuple[str, Optional[Tuple[str, ...]]]
Fingerprint = Tuple[Any, ...]


def new_counts(checks: int = 0) -> Dict[str, int]:
    """A fresh provenance tally for one candidate's plan."""
    return {"checks": checks, VERIFIED: 0, CACHE_HIT: 0, CARRIED: 0}


class PlanEntry:
    """Outline of one (viewpoint, path) check — no contracts built yet.

    The outline stage is deliberately cheap: it records *which* checks
    the candidate's plan contains and *which* components each depends
    on, so the slicer can fingerprint an entry (and the delta can skip
    it) without ever substituting or composing a contract.
    """

    __slots__ = ("spec", "path", "components", "whole")

    def __init__(
        self,
        spec,
        path: Optional[Tuple[str, ...]],
        components: Tuple[str, ...],
        whole: bool = False,
    ) -> None:
        self.spec = spec
        #: ``None`` for a whole-candidate check.
        self.path = path
        #: Component names whose contracts the check composes, in
        #: composition order.
        self.components = components
        #: Whole-candidate check (global viewpoint, or any viewpoint
        #: with decomposition disabled).
        self.whole = whole

    @property
    def pair_id(self) -> PairId:
        """Stable identity of the (viewpoint, path) pair across candidates."""
        return (self.spec.name, self.path)

    def __repr__(self) -> str:
        where = "->".join(self.path) if self.path else "whole"
        return f"PlanEntry({self.spec.name}, {where})"


class DependencySlicer:
    """Fingerprints plan entries by the assignment slice they depend on.

    Built over a :class:`~repro.explore.refinement_check.RefinementChecker`
    (duck-typed: anything exposing ``_component_contract``,
    ``_system_contract_for_path`` and ``_system_contract_whole``). The
    unsubstituted contracts are pure per (viewpoint, component/path) and
    cached by the checker across candidates, so each support set is
    computed once per run.
    """

    def __init__(self, checker) -> None:
        self.checker = checker
        self._supports: Dict[tuple, Tuple[str, ...]] = {}

    # -- supports --------------------------------------------------------------

    def _component_support(self, spec, name: str) -> Tuple[str, ...]:
        key = ("c", spec.name, name)
        if key not in self._supports:
            contract = self.checker._component_contract(spec, name)
            self._supports[key] = _support_of(contract)
        return self._supports[key]

    def _path_system_support(
        self, spec, path: Tuple[str, ...]
    ) -> Tuple[str, ...]:
        key = ("s", spec.name, path)
        if key not in self._supports:
            contract = self.checker._system_contract_for_path(spec, path)
            self._supports[key] = _support_of(contract)
        return self._supports[key]

    def _global_system_support(self, spec) -> Tuple[str, ...]:
        key = ("s", spec.name, None)
        if key not in self._supports:
            contract = self.checker._system_contract_whole(spec, [])
            self._supports[key] = _support_of(contract)
        return self._supports[key]

    # -- fingerprints ----------------------------------------------------------

    def fingerprint(
        self,
        entry: PlanEntry,
        values: Mapping[str, float],
        paths: Sequence[Sequence[str]],
    ) -> Fingerprint:
        """The dependency slice of ``entry`` under one candidate.

        ``values`` is the candidate assignment indexed by variable
        *name* (names are globally unique per mapping template). Two
        candidates yielding equal fingerprints for an entry substitute
        identical contracts into identical compositions — the refinement
        queries, and therefore the verdicts, are the same.
        """
        spec = entry.spec
        parts = tuple(
            (name, _restrict(values, self._component_support(spec, name)))
            for name in entry.components
        )
        if not entry.whole:
            system = _restrict(values, self._path_system_support(spec, entry.path))
            return (spec.name, entry.path, parts, system)
        if spec.viewpoint.path_specific:
            # Whole-candidate check of a path-specific viewpoint (the
            # no-decomposition scenario): the system contract is the
            # conjunction over the candidate's source-to-sink paths, so
            # the path *set* is itself a structural dependency.
            path_set = tuple(tuple(p) for p in paths)
            system = tuple(
                _restrict(values, self._path_system_support(spec, path))
                for path in path_set
            )
            return (spec.name, None, parts, path_set, system)
        system = _restrict(values, self._global_system_support(spec))
        return (spec.name, None, parts, system)


class IterationDelta:
    """Carries verdicts across candidates for unchanged dependency slices.

    Holds the previous candidate's ``{pair_id: (fingerprint, result)}``
    map. :meth:`match` returns the prior verdict when the pair existed
    with an identical fingerprint; :meth:`commit` replaces the state
    with the just-verified candidate, so carries chain across arbitrary
    runs of similar candidates and pairs that disappear (a path no
    longer present) are dropped automatically.
    """

    __slots__ = ("_previous",)

    def __init__(self) -> None:
        self._previous: Dict[PairId, Tuple[Fingerprint, Any]] = {}

    def match(self, pair_id: PairId, fingerprint: Fingerprint):
        """The prior verdict for an unchanged slice, else ``None``."""
        held = self._previous.get(pair_id)
        if held is not None and held[0] == fingerprint:
            return held[1]
        return None

    def commit(
        self, entries: Mapping[PairId, Tuple[Fingerprint, Any]]
    ) -> None:
        """Replace the carried state with the current candidate's."""
        self._previous = dict(entries)

    def reset(self) -> None:
        self._previous = {}

    def __len__(self) -> int:
        return len(self._previous)


# -- helpers -------------------------------------------------------------------


def _support_of(contract) -> Tuple[str, ...]:
    """Sorted variable names a contract's formulas mention."""
    return tuple(sorted({var.name for var in contract.variables()}))


def _restrict(
    values: Mapping[str, float], support: Iterable[str]
) -> Tuple[Tuple[str, float], ...]:
    """The assignment restricted to ``support`` (absent names skipped).

    Names absent from the assignment stay symbolic under substitution
    for every candidate alike, so omitting them is equality-preserving.
    """
    return tuple(
        (name, values[name]) for name in support if name in values
    )


def index_by_name(assignment: Mapping[Any, float]) -> Dict[str, float]:
    """Re-key a Var-keyed assignment by variable name."""
    return {var.name: float(value) for var, value in assignment.items()}
