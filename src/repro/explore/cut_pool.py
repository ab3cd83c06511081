"""Lazy activation of certificate cuts.

Algorithm 2 emits one cut per subgraph-isomorphism embedding, but most
of those cuts never bind: the next candidate the MILP picks satisfies
them anyway. Encoding all of them grows the Problem-2 MILP by thousands
of rows and HiGHS pays for every row in presolve, every solve.

:class:`CutPool` holds emitted cuts outside the model. The exploration
loop activates a cut (encodes it into the MILP) only when a candidate
violates it, and checks every solved candidate against the pool; see
:mod:`repro.explore.engine` for the protocol. The pool stores the cuts'
sparse rows (:class:`~repro.explore.encoding.Cut` ``columns``,
``coefs`` and ``bound``) and evaluates them on a candidate's 0/1
structural assignment as one sparse matrix-vector product per batch of
cuts; a pooled cut's ``Formula`` is never built unless the cut is
activated.
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
    """A batch of cuts as stacked sparse rows, one row per cut."""

    def __init__(self, matrix: csr_matrix, bounds: np.ndarray) -> None:
        self.matrix = matrix
        self.bounds = bounds

    @classmethod
    def of(cls, cuts: Sequence[Cut], num_columns: int) -> "_Block":
        lengths = [len(cut.columns) for cut in cuts]
        matrix = csr_matrix(
            (
                np.concatenate([cut.coefs for cut in cuts]),
                np.concatenate([cut.columns for cut in cuts]),
                np.concatenate([[0], np.cumsum(lengths)]),
            ),
            shape=(len(cuts), num_columns),
        )
        return cls(matrix, np.array([cut.bound for cut in cuts]))

    def satisfied(self, point: np.ndarray) -> np.ndarray:
        """Per cut, whether it holds at ``point``."""
        return self.matrix @ point - self.bounds <= EVAL_TOL

    def select(self, keep: np.ndarray) -> "_Block":
        """The block of the cuts where ``keep`` is true."""
        return _Block(self.matrix[keep], self.bounds[keep])


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
        """Pool the cuts ``candidate`` satisfies; return the rest, which
        must be activated now."""
        if not cuts:
            return []
        block = _Block.of(cuts, len(self.columns.variables))
        holds = block.satisfied(self.columns.point(candidate))
        if holds.any():
            self._blocks.append(block.select(holds))
        verdicts = holds.tolist()
        self._cuts.extend(cut for cut, held in zip(cuts, verdicts) if held)
        return [cut for cut, held in zip(cuts, verdicts) if not held]

    def violated_by(self, candidate: CandidateArchitecture) -> bool:
        """Whether ``candidate`` violates any pooled cut."""
        point = self.columns.point(candidate)
        return not all(block.satisfied(point).all() for block in self._blocks)

    def drain(self) -> List[Cut]:
        """Empty the pool, returning its cuts in emission order."""
        cuts, self._cuts, self._blocks = self._cuts, [], []
        return cuts
