"""RPCA via the inexact augmented Lagrange multiplier (IALM) method.

Included as an alternative to :mod:`~repro.core.apg` for the solver-ablation
study (DESIGN.md Sec 5). IALM solves the constrained convex relaxation

    minimize ||D||_* + λ ||E||_1   subject to   A = D + E

through the augmented Lagrangian ``L(D, E, Y, mu) = ||D||_* + λ||E||_1 +
<Y, A - D - E> + mu/2 ||A - D - E||_F²``, alternating exact minimizations in
``D`` (singular value thresholding) and ``E`` (soft thresholding) with a dual
ascent on ``Y`` and a geometric increase of ``mu`` (Lin, Chen & Ma 2010).

Warm starts
-----------
None. A warm start cannot skip IALM's penalty ramp: feasibility ``A = D + E``
is only reached once ``mu`` has grown enough that the proximal thresholds
``1/mu`` and ``λ/mu`` stop leaving residual behind, and a seeded ``(D, E)``
is re-shrunk while ``mu`` is still small. Starting further up the ramp
instead made a warm solve converge on feasibility before the split: over a
chain of re-calibrations on 64-instance EC2-like traces the constant row
settled 22–27% from a cold solve of the same window. Without the head start
a warm solve took as many iterations as a cold one. The solver therefore
takes no ``warm_start``, and the registry declares it cold-only.

Partial observations
--------------------
``mask`` switches to the RPCA-with-missing-entries program (Candès et al.
Sec 1.6): ``min ||D||_* + λ||P_Ω(E)||_1  s.t.  P_Ω(D + E) = P_Ω(A)``. The
implementation follows the standard completion trick — before each
``D``-step the unobserved entries of the working matrix are replaced by the
current iterate's own values, so the constraint (and the dual ascent) only
ever acts on Ω while the nuclear-norm shrinkage completes the holes. With
``mask=None`` every expression reduces to the unmasked original, bit for
bit.
"""

from __future__ import annotations

import numpy as np

from .. import observability
from .._validation import as_float_matrix, check_positive
from ..errors import ConvergenceError
from .apg import default_lambda, validate_mask
from .elementwise import ElementwiseKernel
from .kernels import SolveWorkspace, SVTKernel, validate_backend
from .result import SolverResult
from .svd_ops import (
    singular_value_threshold,
    soft_threshold,
    spectral_norm,
)

__all__ = ["IALMResult", "rpca_ialm"]

# Backward-compatible alias: every solver now returns the shared contract.
IALMResult = SolverResult


def rpca_ialm(
    a: np.ndarray,
    lam: float | None = None,
    *,
    tol: float = 1e-7,
    max_iter: int = 1000,
    rho: float = 1.5,
    raise_on_fail: bool = False,
    mask: np.ndarray | None = None,
    svd_backend: str = "exact",
) -> SolverResult:
    """Decompose ``a ≈ D + E`` with the IALM RPCA solver.

    Parameters
    ----------
    a:
        Data matrix.
    mask:
        Boolean observation mask of the same shape as *a* (``True`` =
        observed). Unobserved entries are completed by the nuclear-norm
        shrinkage; ``E`` is kept supported on the observed set. ``None``
        (or all-true) is the fully-observed path.
    lam:
        Sparsity trade-off; defaults to ``1/sqrt(max(m, n))``.
    tol:
        Relative feasibility tolerance ``||A - D - E||_F / ||A||_F``.
    max_iter:
        Iteration budget.
    rho:
        Penalty growth factor per iteration (> 1).
    raise_on_fail:
        Raise :class:`~repro.errors.ConvergenceError` on budget exhaustion.
    svd_backend:
        SVD kernel used for the per-iteration singular value thresholding —
        one of :data:`repro.core.kernels.SVD_BACKENDS`. ``"exact"`` (the
        default) is the historical full-``gesdd`` path, bit for bit; the
        other backends route through :class:`~repro.core.kernels.SVTKernel`
        (partial SVD + preallocated workspace + the fused elementwise
        kernel of :mod:`repro.core.elementwise`) and agree to solver
        tolerance rather than bitwise.
    """
    A = as_float_matrix(a, "a")
    m, n = A.shape
    lam_v = default_lambda((m, n)) if lam is None else check_positive(lam, "lam")
    if rho <= 1.0:
        raise ValueError(f"rho must exceed 1, got {rho}")
    validate_backend(svd_backend)
    omega = validate_mask(mask, A.shape)
    if omega is not None:
        A = np.where(omega, A, 0.0)  # placeholder values must carry no signal

    norm_a = np.linalg.norm(A)
    if norm_a == 0.0:
        zero = np.zeros_like(A)
        return SolverResult(zero, zero.copy(), 0, 0, True, 0.0)

    if svd_backend != "exact":
        return _rpca_ialm_fast(
            A,
            lam_v,
            norm_a=float(norm_a),
            tol=tol,
            max_iter=max_iter,
            rho=rho,
            raise_on_fail=raise_on_fail,
            omega=omega,
            svd_backend=svd_backend,
        )

    # Standard IALM initialization (Lin et al. 2010): Y = A / J(A) where
    # J(A) = max(||A||_2, ||A||_inf / λ) makes the initial dual feasible.
    norm_two = float(np.linalg.norm(A, 2))
    norm_inf = float(np.abs(A).max()) / lam_v
    Y = A / max(norm_two, norm_inf)
    mu = 1.25 / norm_two
    mu_bar = mu * 1e7

    D = np.zeros_like(A)
    E = np.zeros_like(A)
    rank = 0
    residual = np.inf
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        if omega is None:
            M = A - E + Y / mu
            with observability.timed("kernel.svt_seconds"):
                D, rank, _ = singular_value_threshold(M, 1.0 / mu)
            E = soft_threshold(A - D + Y / mu, lam_v / mu)
            Z = A - D - E
        else:
            # Completion trick: off Ω the working matrix carries the current
            # iterate's own values, so the D-step sees no spurious zeros and
            # the constraint only binds on observed entries.
            A_work = np.where(omega, A, D + E)
            M = A_work - E + Y / mu
            with observability.timed("kernel.svt_seconds"):
                D, rank, _ = singular_value_threshold(M, 1.0 / mu)
            E = soft_threshold(A - D + Y / mu, lam_v / mu)
            E *= omega
            Z = (A - D - E) * omega
        Y = Y + mu * Z
        mu = min(mu * rho, mu_bar)
        residual = float(np.linalg.norm(Z) / norm_a)
        if residual < tol:
            converged = True
            break

    if not converged and raise_on_fail:
        raise ConvergenceError(
            f"IALM RPCA did not converge in {max_iter} iterations "
            f"(residual {residual:.3e} > tol {tol:.3e})",
            iterations=iterations,
            residual=residual,
        )
    return SolverResult(
        low_rank=D,
        sparse=E,
        rank=rank,
        iterations=iterations,
        converged=converged,
        residual=residual,
    )


def _rpca_ialm_fast(
    A: np.ndarray,
    lam_v: float,
    *,
    norm_a: float,
    tol: float,
    max_iter: int,
    rho: float,
    raise_on_fail: bool,
    omega: np.ndarray | None,
    svd_backend: str,
) -> SolverResult:
    """IALM iteration over the partial-SVD and elementwise kernel layers.

    Same mathematics as the exact loop above with four changes:

    * singular value thresholding goes through an
      :class:`~repro.core.kernels.SVTKernel` instead of a full ``gesdd``;
    * the init-time ``||A||₂`` full SVD becomes a
      :func:`~repro.core.svd_ops.spectral_norm`;
    * the dual is carried as ``Ȳ = Y/μ`` (the only form the proximal steps
      consume), whose ascent folds into
      ``Ȳ_{k+1} = (μ_k/μ_{k+1})·(Ȳ_k + Z_k)`` — algebraically identical to
      ``Y ← Y + μZ`` followed by the division, but with every update
      written in place into a preallocated
      :class:`~repro.core.kernels.SolveWorkspace`, so steady-state
      iterations allocate no new ``m × n`` temporaries;
    * the step recurrences run on an
      :class:`~repro.core.elementwise.ElementwiseKernel`, whose cache
      blocking cuts the memory traffic of the remaining full-array passes.

    The reordered floating-point arithmetic agrees with the exact path to
    solver tolerance, not bit-for-bit — which is why this path is opt-in
    via *svd_backend*.
    """
    kernel = SVTKernel(A.shape, svd_backend)
    ew = ElementwiseKernel()
    ws = SolveWorkspace(A.shape)

    def svt_into(M: np.ndarray, tau: float, out: np.ndarray) -> int:
        return kernel.svt(M, tau, out=out)[1]

    norm_two = spectral_norm(A)
    norm_inf = float(np.abs(A).max()) / lam_v
    mu = 1.25 / norm_two
    mu_bar = mu * 1e7

    D, E, Yinv, M, Z = ws.bufs("D", "E", "Yinv", "M", "Z")

    D[...] = 0.0
    E[...] = 0.0
    # Ȳ₀ = Y₀/μ₀, with Y₀ = A/J(A) as in the exact path.
    np.multiply(A, 1.0 / (max(norm_two, norm_inf) * mu), out=Yinv)
    rank = 0
    residual = np.inf
    converged = False
    iterations = 0

    if omega is not None:
        W = ws.buf("W")

    for iterations in range(1, max_iter + 1):
        # The dual ascent is folded into the step (see module docstring),
        # so the next penalty value is fixed before the step runs.
        mu_next = min(mu * rho, mu_bar)
        if omega is None:
            rank = ew.ialm_step_unmasked(
                A, D, E, Yinv, M, Z,
                1.0 / mu, lam_v / mu, mu / mu_next, svt_into,
            )
        else:
            rank = ew.ialm_step_masked(
                A, omega, D, E, W, Yinv, M, Z,
                1.0 / mu, lam_v / mu, mu / mu_next, svt_into,
            )
        mu = mu_next
        residual = float(np.linalg.norm(Z) / norm_a)
        if residual < tol:
            converged = True
            break

    if not converged and raise_on_fail:
        raise ConvergenceError(
            f"IALM RPCA did not converge in {max_iter} iterations "
            f"(residual {residual:.3e} > tol {tol:.3e})",
            iterations=iterations,
            residual=residual,
        )
    return SolverResult(
        low_rank=D,
        sparse=E,
        rank=rank,
        iterations=iterations,
        converged=converged,
        residual=residual,
    )
