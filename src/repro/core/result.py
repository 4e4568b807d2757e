"""The concrete solver-result contract shared by every RPCA backend.

Historically each solver returned its own result dataclass (``IALMResult``,
...) and downstream code duck-typed across them. That made
the contract invisible: a solver could omit a field and nothing failed until
an attribute lookup deep inside an experiment. :class:`SolverResult` is the
one frozen dataclass every registered solver returns; the old names survive
as aliases so existing imports keep working.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


__all__ = ["Certificate", "SolverResult", "certify"]


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
        Final relative residual (feasibility gap for IALM, reconstruction
        residual for PCA, 0 for exact solvers).
    constant_row:
        For solvers whose ``low_rank`` is exactly row-constant
        (``row_constant``, ``pca``): the representative row. ``None`` for
        generic RPCA solvers, whose near-rank-one ``D`` still needs a
        :func:`~repro.core.decompose.constant_row` extraction.
    """

    low_rank: np.ndarray
    sparse: np.ndarray
    rank: int
    iterations: int
    converged: bool
    residual: float
    constant_row: np.ndarray | None = None

    def __post_init__(self) -> None:
        # The arrays are frozen with the result: a streaming wrap re-serves
        # the same result, and a checkpoint store may skip rewriting an
        # array it already wrote only because the same read-only object
        # cannot have changed.
        for arr in (self.low_rank, self.sparse, self.constant_row):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the decomposed matrix."""
        return self.low_rank.shape  # type: ignore[return-value]


class Certificate(NamedTuple):
    """How close one RPCA answer is to optimal (see :func:`certify`).

    Attributes
    ----------
    residual:
        Primal residual ``‖P_Ω(A − D − E)‖_F / ‖P_Ω(A)‖_F``.
    gap:
        Relative duality gap ``(p − d) / p``: ``p`` the objective of the
        feasible point ``(D, P_Ω(A − D))``, ``d`` the dual objective of the
        certificate ``Y``. Never negative (weak duality); zero certifies
        that ``D`` is optimal.
    """

    residual: float
    gap: float


def certify(
    result: SolverResult,
    a: np.ndarray,
    *,
    lam: float | None = None,
    mask: np.ndarray | None = None,
) -> Certificate:
    """Certify an RPCA answer from its output alone.

    The program is ``min ‖L‖_* + λ‖P_Ω(S)‖₁ s.t. P_Ω(L + S) = P_Ω(A)`` (Ω
    every entry when *mask* is ``None``), whose dual is ``max ⟨P_Ω(A), Y⟩``
    over ``Y`` supported on Ω with ``‖Y‖₂ ≤ 1`` and ``‖Y‖_∞ ≤ λ``. The
    dual point is built from the output: ``λ·sign(E)`` on the support of
    ``E`` (the subgradient of the ℓ₁ term there), the residual ``A − D − E``
    elsewhere, then scaled down until it is feasible. The primal point is
    ``(D, P_Ω(A − D))``, feasible by construction, so by Hölder
    ``⟨A, Y⟩ ≤ ‖D‖_* + λ‖P_Ω(A − D)‖₁`` and the gap cannot be negative.

    *lam* defaults to the solvers' ``1/√max(m, n)``; pass the one the
    solve used otherwise.
    """
    A = np.asarray(a, dtype=np.float64)
    D = np.asarray(result.low_rank, dtype=np.float64)
    E = np.asarray(result.sparse, dtype=np.float64)
    lam_v = 1.0 / np.sqrt(max(A.shape)) if lam is None else float(lam)
    omega = None if mask is None else np.asarray(mask, dtype=bool)
    if omega is not None:
        A = np.where(omega, A, 0.0)
        E = np.where(omega, E, 0.0)
    resid = A - D - E
    if omega is not None:
        resid[~omega] = 0.0
    norm_a = float(np.linalg.norm(A))
    residual = float(np.linalg.norm(resid)) / norm_a if norm_a > 0.0 else 0.0

    y = np.where(E != 0.0, lam_v * np.sign(E), resid)
    scale = max(
        1.0,
        float(np.linalg.norm(y, 2)) if y.any() else 0.0,
        float(np.abs(y).max()) / lam_v,
    )
    y /= scale
    dual = float(np.vdot(A, y))
    off = A - D
    if omega is not None:
        off[~omega] = 0.0
    primal = float(np.linalg.svd(D, compute_uv=False).sum()) + lam_v * float(
        np.abs(off).sum()
    )
    gap = (primal - dual) / primal if primal > 0.0 else 0.0
    return Certificate(residual=residual, gap=gap)
