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

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import ValidationError
from .matrices import PerformanceMatrix, TCMatrix, TEMatrix, TPMatrix
from .metrics import StabilityReport, stability_report
from .options import SolveOptions
from .result import SolverResult
from .solvers import solve_rpca, solver_spec
from .svd_ops import truncated_svd

__all__ = [
    "Decomposition",
    "decompose",
    "decomposition_from_result",
    "decomposition_from_rows",
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


@dataclass(frozen=True, init=False)
class Decomposition:
    """Result of :func:`decompose`: ``N_A ≈ N_D + N_E`` plus diagnostics.

    ``solver_result`` keeps the raw :class:`~repro.core.result.SolverResult`
    (``None`` for a streaming fold or a restored checkpoint): a streaming
    engine seeds its stream from it (see
    :class:`~repro.core.engine.DecompositionEngine`), and
    :func:`~repro.core.result.certify` reads it.

    ``error`` and ``report`` are built on first read — from the window the
    decomposition was made from (:func:`decomposition_from_rows`) — and
    then kept, so every later read returns the same objects. Operations
    only need ``constant``; a streaming session that folds a snapshot per
    operation never pays for the ``n × N²`` error matrix unless a
    checkpoint, a verdict or a report asks for it. Passing ``error`` and
    ``report`` to the constructor (as checkpoint restore does) skips the
    window altogether.
    """

    constant: TCMatrix
    solver: str
    solver_iterations: int
    solver_converged: bool
    solver_result: SolverResult | None = None

    def __init__(
        self,
        constant: TCMatrix,
        error: TEMatrix | None = None,
        report: StabilityReport | None = None,
        solver: str = "",
        solver_iterations: int = 0,
        solver_converged: bool = False,
        solver_result: SolverResult | None = None,
        *,
        window: tuple[Any, np.ndarray | None, int] | None = None,
    ) -> None:
        if error is None or report is None:
            if window is None:
                raise ValidationError(
                    "Decomposition needs error and report, or the window to build them"
                )
            error = report = None
        else:
            window = None
        for name, value in (
            ("constant", constant),
            ("solver", solver),
            ("solver_iterations", solver_iterations),
            ("solver_converged", solver_converged),
            ("solver_result", solver_result),
            ("_error", error),
            ("_report", report),
            # (rows, mask, rank): rows is an n × N² array or a sequence of
            # N² rows; dropped once error and report are built.
            ("_window", window),
        ):
            object.__setattr__(self, name, value)

    @property
    def error(self) -> TEMatrix:
        """The TE-matrix ``N_E`` (built on first read)."""
        if self._error is None:
            self._build_error()
        return self._error  # type: ignore[return-value]

    @property
    def report(self) -> StabilityReport:
        """The :class:`~repro.core.metrics.StabilityReport` (built on first read)."""
        if self._report is None:
            self._build_error()
        return self._report  # type: ignore[return-value]

    @property
    def norm_ne(self) -> float:
        """Shorthand for the L1 relative error norm ``Norm(N_E)``."""
        return self.report.norm_ne

    def performance_matrix(self) -> PerformanceMatrix:
        """The optimizer-ready constant weight matrix ``P_D``."""
        return self.constant.performance_matrix()

    def _build_error(self) -> None:
        rows, mask, rank = self._window
        data = rows if isinstance(rows, np.ndarray) else np.stack(rows)
        tc = self.constant
        # Define the error against the row-constant component actually used
        # for optimization (not the solver's possibly rank>1 D): the
        # effectiveness metric must reflect what the optimizer sees. An
        # unobserved entry has no measured error — for the report it is
        # treated as if it sat exactly on the constant component (zero
        # numerator, constant-level denominator).
        if mask is not None:
            data = np.where(mask, data, tc.as_matrix())
        err = data - tc.as_matrix()
        object.__setattr__(self, "_error", TEMatrix(data=err, n_machines=tc.n_machines))
        object.__setattr__(self, "_report", stability_report(err, data, rank=rank))
        object.__setattr__(self, "_window", None)


def decompose(
    tp: TPMatrix,
    *,
    solver: str = SolveOptions.solver,
    extraction: str = "mean",
    **solver_kwargs: Any,
) -> Decomposition:
    """Decompose a TP-matrix into constant + error components.

    Parameters
    ----------
    tp:
        The calibrated temporal performance matrix ``N_A``. When it carries
        an observation mask (partial snapshot), the mask is forwarded to the
        solver — which must support masked decomposition (IALM does) —
        and unobserved entries are excluded from the error component and
        the stability report.
    solver:
        RPCA backend name (see :func:`~repro.core.solvers.available_solvers`;
        the legacy ``"apg"`` resolves to ``"ialm"`` with a warning).
    extraction:
        Constant-row extraction rule (see :func:`constant_row`). Ignored for
        the ``row_constant`` solver, whose output is exactly row-constant.
    **solver_kwargs:
        Forwarded to the solver (``tol``, ``max_iter``, ...).
    """
    solver = SolveOptions(solver=solver).solver  # resolved; unknown names rejected
    if tp.mask is not None:
        spec = solver_spec(solver)
        if not spec.accepts_any_kwargs and "mask" not in spec.accepted_kwargs:
            raise ValidationError(
                f"solver {solver!r} cannot decompose a partially-observed "
                f"TP-matrix ({tp.observed_fraction:.1%} observed); use a "
                "mask-aware solver such as 'ialm'"
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

    The post-solve tail of :func:`decompose` for callers that obtain their
    :class:`~repro.core.result.SolverResult` some other way (the fleet
    sweep); see
    :func:`decomposition_from_rows`.
    """
    return decomposition_from_rows(
        tp.data, result, n_machines=tp.n_machines, mask=tp.mask,
        solver=solver, extraction=extraction,
    )


def decomposition_from_rows(
    rows: np.ndarray | Sequence[np.ndarray],
    result: Any,
    *,
    n_machines: int,
    mask: np.ndarray | None = None,
    solver: str,
    extraction: str = "mean",
) -> Decomposition:
    """Build a :class:`Decomposition` for the window *rows* from *result*.

    *rows* is the window's ``n × N²`` data, or its ``n`` rows (the
    streaming fold passes the engine's cached rows and never stacks them);
    *mask* its observation mask, if partial. Only the constant row is
    computed here; the error component and the stability report are built
    from *rows* on first read (see :class:`Decomposition`).
    """
    if getattr(result, "constant_row", None) is not None:
        # Exact row-constant solvers (row_constant, pca) and the streaming
        # fold carry their row.
        row = result.constant_row
    else:
        row = constant_row(result.low_rank, method=extraction)
    tc = TCMatrix(row=row, n_rows=len(rows), n_machines=n_machines)
    return Decomposition(
        constant=tc,
        solver=solver,
        solver_iterations=result.iterations,
        solver_converged=result.converged,
        solver_result=result if isinstance(result, SolverResult) else None,
        window=(rows, mask, int(result.rank)),
    )
