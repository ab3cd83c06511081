"""Lazy activation of certificate cuts.

Algorithm 2 emits one cut per subgraph-isomorphism embedding, but most
of those cuts never bind: the next candidate the MILP picks satisfies
them anyway. Encoding all of them grows the Problem-2 MILP by thousands
of rows and HiGHS pays for every row in presolve, every solve.

:class:`CutPool` holds emitted cuts outside the model. The exploration
loop activates a cut (encodes it into the MILP) only when a candidate
violates it, and checks every solved candidate against the pool; see
:mod:`repro.explore.engine` for the protocol. The pool evaluates cuts
on a candidate's 0/1 structural assignment as one sparse
matrix-vector product per batch of cuts instead of walking formulas.

A cut is poolable when it is a ``<=`` comparison or a disjunction of
those over structural (edge/mapping) variables, as every cut from
:func:`repro.explore.certificates.generate_cuts` is. Any other cut is
activated on emission, which is always sound.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from repro.arch.architecture import CandidateArchitecture
from repro.arch.template import MappingTemplate
from repro.explore.encoding import Cut
from repro.expr.constraints import EVAL_TOL, Comparison, Or, Sense

#: One linear atom ``sum(coef * x[col]) + constant <= 0``.
_Atom = Tuple[List[int], List[float], float]


class _Block:
    """A batch of cuts as stacked sparse rows, one row per atom.

    A cut holds when any of its atoms holds (a plain comparison is a
    one-atom disjunction).
    """

    def __init__(self, compiled: Sequence[List[_Atom]], num_columns: int) -> None:
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        constants: List[float] = []
        starts: List[int] = []
        for atoms in compiled:
            starts.append(len(constants))
            for columns, coefs, constant in atoms:
                rows.extend([len(constants)] * len(columns))
                cols.extend(columns)
                vals.extend(coefs)
                constants.append(constant)
        self.matrix = csr_matrix(
            (vals, (rows, cols)), shape=(len(constants), num_columns)
        )
        self.constants = np.asarray(constants, dtype=float)
        self.starts = np.asarray(starts, dtype=np.intp)

    def satisfied(self, point: np.ndarray) -> np.ndarray:
        """Per cut, whether it holds at ``point``."""
        holds = self.matrix @ point + self.constants <= EVAL_TOL
        return np.logical_or.reduceat(holds, self.starts)


class CutPool:
    """Emitted cuts not (yet) encoded into the candidate MILP."""

    def __init__(self, mapping_template: MappingTemplate) -> None:
        self.mapping_template = mapping_template
        self._column = {
            var: j for j, var in enumerate(mapping_template.structural_vars())
        }
        self._cuts: List[Cut] = []
        self._blocks: List[_Block] = []

    def __len__(self) -> int:
        return len(self._cuts)

    def offer(
        self, cuts: Sequence[Cut], candidate: CandidateArchitecture
    ) -> List[Cut]:
        """Pool the cuts ``candidate`` satisfies; return the rest.

        The returned cuts (those the candidate violates, plus any cut
        the pool cannot evaluate) must be activated now.
        """
        compiled = [self._compile(cut) for cut in cuts]
        poolable = [atoms for atoms in compiled if atoms is not None]
        holds = iter(
            _Block(poolable, len(self._column)).satisfied(self._point(candidate))
            if poolable
            else ()
        )
        activate: List[Cut] = []
        kept: List[List[_Atom]] = []
        for cut, atoms in zip(cuts, compiled):
            if atoms is not None and next(holds):
                self._cuts.append(cut)
                kept.append(atoms)
            else:
                activate.append(cut)
        if kept:
            self._blocks.append(_Block(kept, len(self._column)))
        return activate

    def violated_by(self, candidate: CandidateArchitecture) -> bool:
        """Whether ``candidate`` violates any pooled cut."""
        point = self._point(candidate)
        return not all(block.satisfied(point).all() for block in self._blocks)

    def drain(self) -> List[Cut]:
        """Empty the pool, returning its cuts in emission order."""
        cuts, self._cuts, self._blocks = self._cuts, [], []
        return cuts

    # -- internals -----------------------------------------------------------

    def _point(self, candidate: CandidateArchitecture) -> np.ndarray:
        """The candidate's 0/1 structural assignment as a vector."""
        mapping_template = self.mapping_template
        point = np.zeros(len(self._column))
        for src, dst in candidate.selected_edges:
            point[self._column[mapping_template.edge(src, dst)]] = 1.0
        for component, impl in candidate.selected_impls.items():
            var = mapping_template.mapping(component, impl.name)
            point[self._column[var]] = 1.0
        return point

    def _compile(self, cut: Cut) -> Optional[List[_Atom]]:
        """The cut's atoms, or ``None`` when it is not poolable."""
        formula = cut.formula
        children = formula.children if isinstance(formula, Or) else (formula,)
        atoms: List[_Atom] = []
        for atom in children:
            if not (isinstance(atom, Comparison) and atom.sense is Sense.LE):
                return None
            coeffs = atom.expr.coeffs
            columns = [self._column.get(var) for var in coeffs]
            if None in columns:
                return None
            atoms.append(
                (columns, [float(c) for c in coeffs.values()], atom.expr.constant)
            )
        return atoms
