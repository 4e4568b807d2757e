"""High-level TP-matrix decomposition (paper Fig 2 / Algorithm 1 lines 1–2).

:func:`decompose` turns a :class:`~repro.core.matrices.TPMatrix` into a
:class:`Decomposition`: the rank-one :class:`~repro.core.matrices.TCMatrix`
(constant component), the :class:`~repro.core.matrices.TEMatrix` (error
component) and a :class:`~repro.core.metrics.StabilityReport`.

A generic RPCA solver returns a low-rank ``D`` that is *near* rank one on
network data but not exactly row-constant; :func:`constant_row` collapses it
to the single row the optimizers need. Two extraction rules are provided for
the ablation in DESIGN.md Sec 5: the column mean of ``D`` (default — the
least-squares row-constant fit to ``D``) and the dominant singular vector
scaled to preserve the mean row level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import ValidationError
from .matrices import PerformanceMatrix, TCMatrix, TEMatrix, TPMatrix
from .metrics import StabilityReport, stability_report
from .result import SolverResult
from .solvers import solve_rpca, solver_spec
from .svd_ops import truncated_svd

__all__ = [
    "Decomposition",
    "decompose",
    "decomposition_from_result",
    "constant_row",
]


def constant_row(low_rank: np.ndarray, *, method: str = "mean") -> np.ndarray:
    """Collapse a near-rank-one matrix to its representative row.

    Parameters
    ----------
    low_rank:
        The ``D`` matrix from an RPCA solver (rows ≈ equal).
    method:
        ``"mean"`` — column means, i.e. the least-squares projection of ``D``
        onto the row-constant subspace (default). ``"median"`` — column
        medians; robust when whole snapshot rows survive in ``D`` (a scaled
        copy of the constant row is itself low-rank, so RPCA's sparse term
        cannot absorb snapshot-level storms — the median extraction can).
        ``"top_sv"`` — the leading right singular vector of ``D`` scaled so
        its projection matches the mean row.
    """
    d = np.asarray(low_rank, dtype=np.float64)
    if d.ndim != 2 or d.size == 0:
        raise ValidationError("low_rank must be a non-empty 2-D array")
    if method == "mean":
        return d.mean(axis=0)
    if method == "median":
        return np.median(d, axis=0)
    if method == "top_sv":
        _, s, vt = truncated_svd(d)
        if s.size == 0 or s[0] == 0.0:
            return np.zeros(d.shape[1])
        v = vt[0]
        mean_row = d.mean(axis=0)
        scale = float(mean_row @ v)  # project mean row onto the direction
        return scale * v
    raise ValidationError(f"unknown extraction method {method!r}")


@dataclass(frozen=True)
class Decomposition:
    """Result of :func:`decompose`: ``N_A ≈ N_D + N_E`` plus diagnostics.

    ``solver_result`` keeps the raw :class:`~repro.core.result.SolverResult`
    so a later overlapping re-calibration can warm-start from this solve
    (see :class:`~repro.core.engine.DecompositionEngine`).
    """

    constant: TCMatrix
    error: TEMatrix
    report: StabilityReport
    solver: str
    solver_iterations: int
    solver_converged: bool
    solver_result: SolverResult | None = None

    @property
    def norm_ne(self) -> float:
        """Shorthand for the L1 relative error norm ``Norm(N_E)``."""
        return self.report.norm_ne

    def performance_matrix(self) -> PerformanceMatrix:
        """The optimizer-ready constant weight matrix ``P_D``."""
        return self.constant.performance_matrix()


def decompose(
    tp: TPMatrix,
    *,
    solver: str = "apg",
    extraction: str = "mean",
    svd_backend: str | None = None,
    **solver_kwargs: Any,
) -> Decomposition:
    """Decompose a TP-matrix into constant + error components.

    Parameters
    ----------
    tp:
        The calibrated temporal performance matrix ``N_A``. When it carries
        an observation mask (partial snapshot), the mask is forwarded to the
        solver — which must support masked decomposition (APG/IALM do) —
        and unobserved entries are excluded from the error component and
        the stability report.
    solver:
        RPCA backend name (see :func:`~repro.core.solvers.available_solvers`).
    extraction:
        Constant-row extraction rule (see :func:`constant_row`). Ignored for
        the ``row_constant`` solver, whose output is exactly row-constant.
    svd_backend:
        SVD kernel for the per-iteration thresholding — one of
        :data:`repro.core.kernels.SVD_BACKENDS`. Only meaningful for solvers
        built on singular value thresholding (APG/IALM); ``None`` (default)
        leaves the solver on its own default (``"exact"``).
    **solver_kwargs:
        Forwarded to the solver.
    """
    if svd_backend is not None:
        spec = solver_spec(solver)
        if not spec.accepts_any_kwargs and "svd_backend" not in spec.accepted_kwargs:
            raise ValidationError(
                f"solver {solver!r} does not take an SVD backend; "
                "only SVT-based solvers such as 'apg' or 'ialm' do"
            )
        solver_kwargs = dict(solver_kwargs, svd_backend=svd_backend)
    if tp.mask is not None:
        spec = solver_spec(solver)
        if not spec.accepts_any_kwargs and "mask" not in spec.accepted_kwargs:
            raise ValidationError(
                f"solver {solver!r} cannot decompose a partially-observed "
                f"TP-matrix ({tp.observed_fraction:.1%} observed); use a "
                "mask-aware solver such as 'apg' or 'ialm'"
            )
        solver_kwargs = dict(solver_kwargs, mask=tp.mask)
    result = solve_rpca(tp.data, solver=solver, **solver_kwargs)
    return decomposition_from_result(tp, result, solver=solver, extraction=extraction)


def decomposition_from_result(
    tp: TPMatrix,
    result: SolverResult,
    *,
    solver: str,
    extraction: str = "mean",
) -> Decomposition:
    """Build a :class:`Decomposition` from an already-computed solver result.

    The post-solve tail of :func:`decompose` — row extraction, error
    component, stability report — shared with callers that obtain their
    :class:`~repro.core.result.SolverResult` some other way (the engine's
    warm-started and streaming solves, the fleet sweep).
    """
    if getattr(result, "constant_row", None) is not None:
        # Exact row-constant solvers (row_constant, pca) carry their row.
        row = result.constant_row
    else:
        row = constant_row(result.low_rank, method=extraction)
    tc = TCMatrix(row=row, n_rows=tp.n_snapshots, n_machines=tp.n_machines)
    # Define the error against the row-constant component actually used for
    # optimization (not the solver's possibly rank>1 D): the effectiveness
    # metric must reflect what the optimizer sees. An unobserved entry has
    # no measured error — for the report it is treated as if it sat exactly
    # on the constant component (zero numerator, constant-level denominator).
    data = tp.data
    if tp.mask is not None:
        data = np.where(tp.mask, data, tc.as_matrix())
    err = data - tc.as_matrix()
    te = TEMatrix(data=err, n_machines=tp.n_machines)
    report = stability_report(err, data, rank=result.rank)
    return Decomposition(
        constant=tc,
        error=te,
        report=report,
        solver=solver,
        solver_iterations=result.iterations,
        solver_converged=result.converged,
        solver_result=result if isinstance(result, SolverResult) else None,
    )
