"""RPCA via the accelerated proximal gradient method with continuation.

This is the solver the paper adopts ("the approach by Ji et al. [20], their
implementation [35]" — the Accelerated Proximal Gradient sample code from the
Illinois matrix-rank page). It solves the relaxed RPCA program

    minimize   mu ||D||_* + mu λ ||E||_1 + 1/2 ||D + E - A||_F^2

driving ``mu`` down a geometric continuation schedule ``mu ← max(η·mu, mū)``
so the solution path approaches the constrained problem

    minimize   ||D||_* + λ ||E||_1   subject to   A = D + E.

The iteration is FISTA-style: momentum extrapolation ``Y = X_k + ((t_{k-1}-1)/t_k)
(X_k - X_{k-1})`` on both blocks, a gradient step on the smooth coupling term
(Lipschitz constant 2, hence the 1/2 step), then the two proximal maps —
singular value thresholding for ``D`` and soft thresholding for ``E``.

Warm starts
-----------
Algorithm-1 re-calibrations solve near-identical problems — successive
TP-matrix windows share all but one snapshot row — so
:func:`rpca_apg` accepts the previous window's ``(D, E)`` as a *warm start*.
The continuation schedule exists to get a cold start (``D = E = 0``) safely
through the high-``mu`` regime; a warm iterate does not need that ramp, so a
warm solve restarts ``mu`` at ``warm_mu_factor × σ₁`` instead of ``0.99 σ₁``
and skips the iterations the cold schedule spends decaying between the two.
Because APG-with-continuation is path-dependent, the warm split can differ
from the cold one at roughly the ``warm_mu_factor``-controlled level (about
1e-3 relative on the constant row at the 0.1 default, measured on EC2-like
traces); callers that need the bitwise cold answer simply omit ``warm_start``.

Partial observations
--------------------
Real calibration snapshots lose probes and whole VMs; ``mask`` marks which
entries of ``A`` were observed. The masked program replaces the coupling
term with ``1/2 ||P_Ω(D + E - A)||_F²`` (Ω the observed set), so the
gradient — and therefore all data pressure — vanishes on unobserved
entries: the nuclear-norm prox *completes* ``D`` there, and ``E`` is kept
supported on Ω (an unobserved entry cannot witness a transient error).
With ``mask=None`` (or an all-true mask) every operation below reduces to
the exact unmasked expressions, bit for bit.

Partial SVD backends
--------------------
``svd_backend="exact"`` (the default) is the loop written above, pinned
bit for bit. ``"gram"``/``"auto"`` run :func:`_rpca_apg_fast`: the same
iteration over the kernel layers. Unmasked, it carries ``G = D − E + A``
and shrinks through the ``m × m`` Gram operator, so one iteration is two
GEMMs and one blocked elementwise sweep over four ``m × n`` buffers (about
eight full-array passes), and ``D``/``E`` are formed once at the end. It
takes the same iterations as the exact loop and agrees with it to solver
tolerance, not bitwise.
"""

from __future__ import annotations

import numpy as np

from .. import observability
from .._validation import as_float_matrix, check_positive
from ..errors import ConvergenceError, ValidationError
from .elementwise import ElementwiseKernel
from .kernels import SolveWorkspace, SVTKernel, validate_backend
from .result import SolverResult
from .svd_ops import (
    singular_value_threshold,
    soft_threshold,
    soft_threshold_into,
    spectral_norm,
    truncated_svd,
)

__all__ = ["APGResult", "rpca_apg", "default_lambda", "validate_mask"]

# Backward-compatible alias: every solver now returns the shared contract.
APGResult = SolverResult


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


def _unpack_warm_start(
    warm_start: object, shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a warm start — a :class:`SolverResult` or ``(D, E)`` pair."""
    if hasattr(warm_start, "low_rank") and hasattr(warm_start, "sparse"):
        d0, e0 = warm_start.low_rank, warm_start.sparse  # type: ignore[attr-defined]
    else:
        try:
            d0, e0 = warm_start  # type: ignore[misc]
        except (TypeError, ValueError):
            raise TypeError(
                "warm_start must be a SolverResult or a (low_rank, sparse) pair"
            ) from None
    d0 = np.asarray(d0, dtype=np.float64)
    e0 = np.asarray(e0, dtype=np.float64)
    if d0.shape != shape or e0.shape != shape:
        raise ValueError(
            f"warm_start shape {d0.shape}/{e0.shape} does not match data {shape}"
        )
    return d0, e0


def rpca_apg(
    a: np.ndarray,
    lam: float | None = None,
    *,
    tol: float = 1e-7,
    max_iter: int = 500,
    eta: float = 0.9,
    mu_floor_factor: float = 1e-9,
    raise_on_fail: bool = False,
    warm_start: object | None = None,
    warm_mu_factor: float = 0.1,
    mask: np.ndarray | None = None,
    svd_backend: str = "exact",
) -> SolverResult:
    """Decompose ``a ≈ D + E`` with the APG RPCA solver.

    Parameters
    ----------
    a:
        Data matrix (the TP-matrix in this package's use).
    mask:
        Boolean observation mask of the same shape as *a* (``True`` =
        observed). Unobserved entries of *a* are ignored — ``D`` is
        completed there by the nuclear-norm prox and ``E`` is forced to
        zero. ``None`` (or all-true) is the fully-observed path.
    lam:
        Sparsity trade-off λ; defaults to ``1/sqrt(max(m, n))``.
    tol:
        Relative stationarity tolerance on ``||S_{k+1}||_F / ||A||_F`` where
        ``S`` is the proximal-gradient stationarity gap (same criterion as
        the reference implementation).
    max_iter:
        Iteration budget.
    eta:
        Continuation decay for ``mu``; must be in (0, 1).
    mu_floor_factor:
        ``mū = mu_floor_factor × mu_0``; the continuation floor.
    raise_on_fail:
        If true, raise :class:`~repro.errors.ConvergenceError` instead of
        returning a non-converged result.
    warm_start:
        Previous solution to start from — a :class:`SolverResult` or a
        ``(low_rank, sparse)`` pair of the same shape as *a*. Intended for
        re-solving an overlapping window (Algorithm-1 re-calibration); see
        the module docstring for the fidelity/speed trade-off.
    warm_mu_factor:
        Initial ``mu`` as a fraction of ``σ₁`` when warm-starting (cold
        starts always use the reference 0.99). Smaller is faster but lets
        the warm split drift further from the cold one; must be in (0, 1).
    svd_backend:
        SVD backend under the singular value thresholding (see
        :mod:`repro.core.kernels`). ``"exact"`` (default) is the historical
        full-``gesdd`` path, bit-identical to previous releases. The
        partial backends (``"gram"``, ``"auto"``) also switch the
        iteration loop to a preallocated workspace, the fused elementwise
        kernel (see :mod:`repro.core.elementwise`) and a spectral-norm
        computation in place of the init-time full SVD; results agree
        with ``"exact"`` to solver tolerance, not bit-for-bit.
    """
    A = as_float_matrix(a, "a")
    m, n = A.shape
    lam_v = default_lambda((m, n)) if lam is None else check_positive(lam, "lam")
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must be in (0, 1), got {eta}")
    if not 0.0 < warm_mu_factor < 1.0:
        raise ValueError(f"warm_mu_factor must be in (0, 1), got {warm_mu_factor}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    validate_backend(svd_backend)
    omega = validate_mask(mask, A.shape)
    if omega is not None:
        A = np.where(omega, A, 0.0)  # placeholder values must carry no signal

    norm_a = np.linalg.norm(A)
    if norm_a == 0.0:
        zero = np.zeros_like(A)
        return SolverResult(zero, zero.copy(), 0, 0, True, 0.0)

    if svd_backend != "exact":
        return _rpca_apg_fast(
            A,
            lam_v,
            norm_a=norm_a,
            tol=tol,
            max_iter=max_iter,
            eta=eta,
            mu_floor_factor=mu_floor_factor,
            raise_on_fail=raise_on_fail,
            warm_start=warm_start,
            warm_mu_factor=warm_mu_factor,
            omega=omega,
            svd_backend=svd_backend,
        )

    # mu_0 = second singular value heuristic is common; the reference code
    # starts at 0.99 * ||A||_2 which is cheap and robust. L = 2 (two blocks).
    _, s, _ = truncated_svd(A)
    mu_top = float(s[0])
    mu_bar = mu_floor_factor * 0.99 * mu_top

    warm = warm_start is not None
    if warm:
        D, E = _unpack_warm_start(warm_start, A.shape)
        mu = max(mu_bar, warm_mu_factor * mu_top)
    else:
        D = np.zeros_like(A)
        E = np.zeros_like(A)
        mu = 0.99 * mu_top
    D_prev = D.copy()
    E_prev = E.copy()
    t, t_prev = 1.0, 1.0

    rank = 0
    residual = np.inf
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        beta = (t_prev - 1.0) / t
        YD = D + beta * (D - D_prev)
        YE = E + beta * (E - E_prev)

        # Gradient of 1/2||P_Ω(D+E-A)||_F^2 w.r.t. both blocks is
        # P_Ω(YD + YE - A); the Lipschitz constant over the joint block
        # variable is 2. Unmasked, P_Ω is the identity.
        G = 0.5 * (YD + YE - A)
        if omega is not None:
            G *= omega
        M = YD - G
        with observability.timed("kernel.svt_seconds"):
            D_new, rank, _ = singular_value_threshold(M, mu / 2.0)
        E_new = soft_threshold(YE - G, lam_v * mu / 2.0)
        if omega is not None:
            E_new *= omega  # a transient error needs a witness

        # Stationarity gap of the reference implementation:
        # S = 2(Y - X_{k+1}) + (X_{k+1} - Y) summed over blocks.
        diff = D_new + E_new - YD - YE
        if omega is not None:
            diff = diff * omega
        SD = 2.0 * (YD - D_new) + diff
        SE = 2.0 * (YE - E_new) + diff
        residual = float(
            np.sqrt(np.linalg.norm(SD) ** 2 + np.linalg.norm(SE) ** 2) / norm_a
        )

        D_prev, E_prev = D, E
        D, E = D_new, E_new
        t_prev, t = t, (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        mu = max(eta * mu, mu_bar)

        if residual < tol:
            converged = True
            break

    if not converged and raise_on_fail:
        raise ConvergenceError(
            f"APG RPCA did not converge in {max_iter} iterations "
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
        warm_started=warm,
    )


def _rpca_apg_fast(
    A: np.ndarray,
    lam_v: float,
    *,
    norm_a: float,
    tol: float,
    max_iter: int,
    eta: float,
    mu_floor_factor: float,
    raise_on_fail: bool,
    warm_start: object | None,
    warm_mu_factor: float,
    omega: np.ndarray | None,
    svd_backend: str,
) -> SolverResult:
    """APG iteration over the partial-SVD and elementwise kernel layers.

    Same mathematics as the exact loop above, restructured for speed:

    * singular value thresholding goes through an
      :class:`~repro.core.kernels.SVTKernel` instead of a full ``gesdd``;
    * the init-time full SVD for ``σ₁`` becomes a
      :func:`~repro.core.svd_ops.spectral_norm`;
    * every iteration writes into a preallocated
      :class:`~repro.core.kernels.SolveWorkspace` — steady-state iterations
      allocate no new ``m × n`` temporaries.

    The unmasked loop carries ``G = D − E + A`` and the prox input ``M_D``
    instead of the two blocks and their momentum copies. With ``T = Y_D −
    Y_E`` the exact loop's proximal inputs are ``M_D = (T + A)/2`` and
    ``M_E = A − M_D``, and ``T + A = (1 + β)·G − β·G_prev``. Thresholding
    ``M_D`` through the Gram kernel is the ``m × m`` shrink operator ``P``
    (``D₊ = P·M_D``), and ``E₊ = (A − M_D) − clip(A − M_D, ±τ_E)``, so

    * ``G₊ = (P + I)·M_D + clip(A − M_D, ±τ_E)`` — one GEMM and an
      elementwise tail;
    * the stationarity blocks satisfy ``S_E = −S_D`` with ``S_D = T − (D₊ −
      E₊) = 2·M_D − G₊``, so ``‖S‖ = √2·‖S_D‖``;
    * ``M_D′ = ((1 + β′)·G₊ − β′·G)/2`` needs only the two carriers.

    Everything between the two GEMMs (Gram and ``(P + I)·M_D``) is one
    blocked sweep (:meth:`~repro.core.elementwise.ElementwiseKernel.apg_step_unmasked`)
    over four ``m × n`` buffers. ``D`` and ``E`` themselves are formed once,
    from the last iteration's ``M_D``, after the residual test passes.

    The reordered floating-point arithmetic makes results agree with the
    exact path to solver tolerance (≈ ``tol`` on the relative residual),
    not bit-for-bit — which is why this path is opt-in via *svd_backend*.
    """
    kernel = SVTKernel(A.shape, svd_backend)
    ew = ElementwiseKernel()
    ws = SolveWorkspace(A.shape)

    mu_top = spectral_norm(A)
    mu_bar = mu_floor_factor * 0.99 * mu_top

    warm = warm_start is not None
    if warm:
        D0, E0 = _unpack_warm_start(warm_start, A.shape)
        mu = max(mu_bar, warm_mu_factor * mu_top)
    else:
        D0 = E0 = None
        mu = 0.99 * mu_top
    t, t_prev = 1.0, 1.0
    rank = 0
    residual = np.inf
    converged = False
    iterations = 0

    if omega is None:
        # Carrier G = D − E + A and prox input M_D (see docstring). The
        # first momentum weight is 0, so M_D starts at G/2.
        G, Gn, MD, MDn = ws.bufs("G", "Gn", "MD", "MDn")
        if warm:
            np.subtract(D0, E0, out=G)
            G += A
        else:
            np.copyto(G, A)
        np.multiply(G, 0.5, out=MD)
        for iterations in range(1, max_iter + 1):
            if iterations > 1:
                G, Gn = Gn, G
                MD, MDn = MDn, MD
            tau_e = lam_v * mu / 2.0
            rank = kernel.svt(MD, mu / 2.0, out=Gn, plus_input=True)[1]
            t_prev, t = t, (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            ss = ew.apg_step_unmasked(A, G, Gn, MD, MDn, tau_e, (t_prev - 1.0) / t)
            residual = float(np.sqrt(2.0 * ss) / norm_a)
            mu = max(eta * mu, mu_bar)
            if residual < tol:
                converged = True
                break
        # D₊ and E₊ of the last iteration, formed once from its prox input.
        np.subtract(A, MD, out=MDn)
        D, E = kernel.low_rank(MD, out=G), soft_threshold_into(MDn, tau_e, out=Gn)
    else:
        # Masked: the identities above do not survive P_Ω, so this is the
        # exact masked loop with every temporary routed through the
        # workspace (historically `E *= omega` and the gradient/diff
        # expressions re-allocated m×n arrays every iteration).
        def svt_into(M: np.ndarray, tau: float, out: np.ndarray) -> int:
            return kernel.svt(M, tau, out=out)[1]

        def fro(X: np.ndarray) -> float:
            return float(np.linalg.norm(X))

        D, Dp, Dn, E, Ep, En, YD, YE, G, M, S = ws.bufs(
            "D", "Dp", "Dn", "E", "Ep", "En", "YD", "YE", "G", "M", "S"
        )
        if warm:
            np.copyto(D, D0)
            np.copyto(E, E0)
        else:
            D.fill(0.0)
            E.fill(0.0)
        np.copyto(Dp, D)
        np.copyto(Ep, E)
        for iterations in range(1, max_iter + 1):
            beta = (t_prev - 1.0) / t
            rank, sd, se = ew.apg_step_masked(
                A, omega, D, Dp, E, Ep, YD, YE, G, M, S, Dn, En,
                beta, mu / 2.0, lam_v * mu / 2.0, svt_into, fro,
            )
            residual = float(np.sqrt(sd * sd + se * se) / norm_a)
            Dp, D, Dn = D, Dn, Dp
            Ep, E, En = E, En, Ep
            t_prev, t = t, (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            mu = max(eta * mu, mu_bar)
            if residual < tol:
                converged = True
                break

    if not converged and raise_on_fail:
        raise ConvergenceError(
            f"APG RPCA did not converge in {max_iter} iterations "
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
        warm_started=warm,
    )
