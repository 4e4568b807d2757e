"""The concrete solver-result contract shared by every RPCA backend.

Historically each solver returned its own result dataclass (``APGResult``,
``IALMResult``, ...) and downstream code duck-typed across them. That made
the contract invisible: a solver could omit a field and nothing failed until
an attribute lookup deep inside an experiment. :class:`SolverResult` is the
one frozen dataclass every registered solver returns; the old names survive
as aliases so existing imports keep working.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SolverResult"]


@dataclass(frozen=True, slots=True)
class SolverResult:
    """Outcome of one RPCA solve: ``a ≈ low_rank + sparse`` plus diagnostics.

    Attributes
    ----------
    low_rank:
        The recovered low-rank matrix ``D``.
    sparse:
        The recovered sparse matrix ``E``.
    rank:
        Numerical rank of ``D`` at the final iterate.
    iterations:
        Number of iterations performed (1 for direct solvers).
    converged:
        Whether the stopping criterion was met within the budget.
    residual:
        Final relative residual (stationarity gap for APG, feasibility gap
        for IALM, reconstruction residual for PCA, 0 for exact solvers).
    constant_row:
        For solvers whose ``low_rank`` is exactly row-constant
        (``row_constant``, ``pca``): the representative row. ``None`` for
        generic RPCA solvers, whose near-rank-one ``D`` still needs a
        :func:`~repro.core.decompose.constant_row` extraction.
    warm_started:
        Whether this solve was initialized from a previous solution.
    """

    low_rank: np.ndarray
    sparse: np.ndarray
    rank: int
    iterations: int
    converged: bool
    residual: float
    constant_row: np.ndarray | None = None
    warm_started: bool = False

    def __post_init__(self) -> None:
        # The arrays are frozen with the result: warm starts copy them, and
        # a checkpoint store may skip rewriting an array it already wrote
        # only because the same read-only object cannot have changed.
        for arr in (self.low_rank, self.sparse, self.constant_row):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the decomposed matrix."""
        return self.low_rank.shape  # type: ignore[return-value]
