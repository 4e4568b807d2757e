"""RPCA via the inexact augmented Lagrange multiplier (IALM) method.

The paper runs RPCA with "the inexact augmented Lagrange multipliers (IALM)
method [28]" (Lin, Chen & Ma 2010), and so does this package: it is the one
relaxed RPCA solver in the registry. IALM solves the constrained convex
relaxation

    minimize ||D||_* + λ ||E||_1   subject to   A = D + E

through the augmented Lagrangian ``L(D, E, Y, mu) = ||D||_* + λ||E||_1 +
<Y, A - D - E> + mu/2 ||A - D - E||_F²``, alternating exact minimizations in
``D`` (singular value thresholding) and ``E`` (soft thresholding) with a dual
ascent on ``Y`` and a geometric increase of ``mu``.

Every solve is cold. A warm start cannot skip IALM's penalty ramp:
feasibility ``A = D + E`` is only reached once ``mu`` has grown enough that
the proximal thresholds ``1/mu`` and ``λ/mu`` stop leaving residual behind,
and a seeded ``(D, E)`` is re-shrunk while ``mu`` is still small. Starting
further up the ramp instead made a warm solve converge on feasibility before
the split: over a chain of re-calibrations on 64-instance EC2-like traces
the constant row settled 22–27% from a cold solve of the same window.

IALM stops on feasibility, so the ``D`` it returns keeps singular values a
few orders of magnitude below ``σ₁`` (1e-5 to 1e-7 of it on paper-scale
windows) that the program cannot pin down; see
:meth:`~repro.core.streaming.StreamingDecomposer.prepare_seed` for what the
streaming path drops. :func:`~repro.core.result.certify` bounds how far an
answer is from optimal.

Partial observations
--------------------
``mask`` switches to the RPCA-with-missing-entries program (Candès et al.
Sec 1.6): ``min ||D||_* + λ||P_Ω(E)||_1  s.t.  P_Ω(D + E) = P_Ω(A)``. The
implementation follows the standard completion trick — before each
``D``-step the unobserved entries of the working matrix are replaced by the
current iterate's own values, so the constraint (and the dual ascent) only
ever acts on Ω while the nuclear-norm shrinkage completes the holes.

The loop
--------
There is one iteration loop, over the kernel layers: the singular value
thresholding runs on an :class:`~repro.core.kernels.SVTKernel` (the
``m × m`` Gram kernel when the short side is at most 64, the full SVD
otherwise), ``||A||₂`` comes from
:func:`~repro.core.svd_ops.spectral_norm`, and the step recurrences run on
an :class:`~repro.core.elementwise.ElementwiseKernel` over a preallocated
:class:`~repro.core.kernels.SolveWorkspace`, so steady-state iterations
allocate no new ``m × n`` temporaries. The dual is carried as ``Ȳ = Y/μ``
(the only form the proximal steps consume), whose ascent folds into
``Ȳ_{k+1} = (μ_k/μ_{k+1})·(Ȳ_k + Z_k)`` — algebraically ``Y ← Y + μZ``
followed by the division, written in place. The iteration as stated
above, with a full SVD per step and ``Y`` itself, is the test oracle
``rpca_ialm_plain`` in ``tests/oracles.py``; the loop agrees with it to
solver tolerance with equal iteration counts.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_float_matrix, check_positive
from ..errors import ConvergenceError, ValidationError
from .elementwise import ElementwiseKernel
from .kernels import SolveWorkspace, SVTKernel, validate_backend
from .result import SolverResult
from .svd_ops import spectral_norm

__all__ = ["IALMResult", "default_lambda", "rpca_ialm", "validate_mask"]

# Backward-compatible alias: every solver now returns the shared contract.
IALMResult = SolverResult


def default_lambda(shape: tuple[int, int]) -> float:
    """The standard RPCA trade-off ``λ = 1 / sqrt(max(m, n))`` (Candès et al.)."""
    return 1.0 / np.sqrt(max(shape))


def validate_mask(
    mask: object | None, shape: tuple[int, int]
) -> np.ndarray | None:
    """Validate an observation mask against the data shape.

    Returns ``None`` when the mask is absent *or* all-true, so callers can
    gate every masked code path on ``mask is not None`` and keep the
    fully-observed path identical to the historical one. An all-false mask
    is rejected — there is nothing to decompose.
    """
    if mask is None:
        return None
    m = np.asarray(mask)
    if m.dtype != np.bool_:
        raise ValidationError("mask must be a boolean array")
    if m.shape != shape:
        raise ValidationError(f"mask shape {m.shape} does not match data {shape}")
    if m.all():
        return None
    if not m.any():
        raise ValidationError("mask must observe at least one entry")
    return np.ascontiguousarray(m)


def rpca_ialm(
    a: np.ndarray,
    lam: float | None = None,
    *,
    tol: float = 1e-7,
    max_iter: int = 1000,
    rho: float = 1.5,
    raise_on_fail: bool = False,
    mask: np.ndarray | None = None,
    svd_backend: str = "auto",
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
        Forces the SVT kernel (see :mod:`repro.core.kernels`): ``"auto"``
        (default) picks it from the shape, ``"gram"`` and ``"exact"`` (the
        full SVD) force one. It selects no other loop.
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

    norm_a = float(np.linalg.norm(A))
    if norm_a == 0.0:
        zero = np.zeros_like(A)
        return SolverResult(zero, zero.copy(), 0, 0, True, 0.0)

    kernel = SVTKernel(A.shape, svd_backend)
    ew = ElementwiseKernel()
    ws = SolveWorkspace(A.shape)

    def svt_into(M: np.ndarray, tau: float, out: np.ndarray) -> int:
        return kernel.svt(M, tau, out=out)[1]

    # Standard IALM initialization (Lin et al. 2010): Y = A / J(A) where
    # J(A) = max(||A||_2, ||A||_inf / λ) makes the initial dual feasible.
    norm_two = spectral_norm(A)
    norm_inf = float(np.abs(A).max()) / lam_v
    mu = 1.25 / norm_two
    mu_bar = mu * 1e7

    D, E, Yinv, M, Z = ws.bufs("D", "E", "Yinv", "M", "Z")

    D[...] = 0.0
    E[...] = 0.0
    # Ȳ₀ = Y₀/μ₀ (see module docstring).
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
