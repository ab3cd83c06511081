"""Lazy activation of certificate cuts.

Algorithm 2 emits one cut per subgraph-isomorphism embedding, but most
of those cuts never bind: the next candidate the MILP picks satisfies
them anyway. Encoding all of them grows the Problem-2 MILP by thousands
of rows and HiGHS pays for every row in presolve, every solve.

:class:`CutPool` holds emitted cuts outside the model. The exploration
loop activates a cut (encodes it into the MILP) only when a candidate
violates it, and checks every solved candidate against the pool; see
:mod:`repro.explore.engine` for the protocol. The pool stores the cuts'
sparse rows (:class:`~repro.explore.encoding.Cut` ``atoms``) and
evaluates them on a candidate's 0/1 structural assignment as one sparse
matrix-vector product per batch of cuts; a pooled cut's ``Formula`` is
never built unless the cut is activated.

Every cut of :func:`repro.explore.certificates.generate_cuts` carries
rows. A cut that carries only a formula is activated on emission, which
is always sound.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from repro.arch.architecture import CandidateArchitecture
from repro.arch.template import MappingTemplate
from repro.explore.encoding import Cut
from repro.expr.constraints import EVAL_TOL


class _Block:
    """A batch of cuts as stacked sparse rows, one row per atom.

    A cut holds when any of its atoms holds (a plain comparison is a
    one-atom disjunction).
    """

    def __init__(
        self, matrix: csr_matrix, bounds: np.ndarray, atom_counts: np.ndarray
    ) -> None:
        self.matrix = matrix
        self.bounds = bounds
        self.atom_counts = atom_counts
        self.starts = np.concatenate([[0], np.cumsum(atom_counts)[:-1]])

    @classmethod
    def of(cls, cuts: Sequence[Cut], num_columns: int) -> "_Block":
        atoms = [atom for cut in cuts for atom in cut.atoms]
        lengths = [len(columns) for columns, _, _ in atoms]
        matrix = csr_matrix(
            (
                np.repeat([coef for _, coef, _ in atoms], lengths),
                np.concatenate([columns for columns, _, _ in atoms]),
                np.concatenate([[0], np.cumsum(lengths)]),
            ),
            shape=(len(atoms), num_columns),
        )
        bounds = np.array([bound for _, _, bound in atoms])
        return cls(matrix, bounds, np.array([len(cut.atoms) for cut in cuts]))

    def satisfied(self, point: np.ndarray) -> np.ndarray:
        """Per cut, whether it holds at ``point``."""
        holds = self.matrix @ point - self.bounds <= EVAL_TOL
        return np.logical_or.reduceat(holds, self.starts)

    def select(self, keep: np.ndarray) -> "_Block":
        """The block of the cuts where ``keep`` is true."""
        rows = np.repeat(keep, self.atom_counts)
        return _Block(self.matrix[rows], self.bounds[rows], self.atom_counts[keep])


class CutPool:
    """Emitted cuts not (yet) encoded into the candidate MILP."""

    def __init__(self, mapping_template: MappingTemplate) -> None:
        self.columns = mapping_template.structural_columns
        self._cuts: List[Cut] = []
        self._blocks: List[_Block] = []

    def __len__(self) -> int:
        return len(self._cuts)

    def offer(
        self, cuts: Sequence[Cut], candidate: CandidateArchitecture
    ) -> List[Cut]:
        """Pool the cuts ``candidate`` satisfies; return the rest.

        The returned cuts (those the candidate violates, plus any cut
        that carries no rows) must be activated now.
        """
        rows = [cut for cut in cuts if cut.atoms]
        holds = np.zeros(0, dtype=bool)
        if rows:
            block = _Block.of(rows, len(self.columns.variables))
            holds = block.satisfied(self.columns.point(candidate))
            if holds.any():
                self._blocks.append(block.select(holds))
        verdicts = iter(holds.tolist())
        activate: List[Cut] = []
        for cut in cuts:
            if cut.atoms and next(verdicts):
                self._cuts.append(cut)
            else:
                activate.append(cut)
        return activate

    def violated_by(self, candidate: CandidateArchitecture) -> bool:
        """Whether ``candidate`` violates any pooled cut."""
        point = self.columns.point(candidate)
        return not all(block.satisfied(point).all() for block in self._blocks)

    def drain(self) -> List[Cut]:
        """Empty the pool, returning its cuts in emission order."""
        cuts, self._cuts, self._blocks = self._cuts, [], []
        return cuts
