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

The loop
--------
There is one iteration loop, over the kernel layers: the singular value
thresholding runs on an :class:`~repro.core.kernels.SVTKernel` (the
``m × m`` Gram kernel when the short side is at most 64, the full SVD
otherwise), ``σ₁`` comes from :func:`~repro.core.svd_ops.spectral_norm`,
and every iteration writes into a preallocated
:class:`~repro.core.kernels.SolveWorkspace`.

Unmasked, the loop carries ``G = D − E + A`` and the prox input ``M_D``
instead of the two blocks and their momentum copies. With ``T = Y_D −
Y_E`` the proximal inputs are ``M_D = (T + A)/2`` and ``M_E = A − M_D``,
and ``T + A = (1 + β)·G − β·G_prev``. Thresholding ``M_D`` through the
Gram kernel is the ``m × m`` shrink operator ``P`` (``D₊ = P·M_D``), and
``E₊ = (A − M_D) − clip(A − M_D, ±τ_E)``, so

* ``G₊ = (P + I)·M_D + clip(A − M_D, ±τ_E)`` — one GEMM and an
  elementwise tail;
* the stationarity blocks satisfy ``S_E = −S_D`` with ``S_D = T − (D₊ −
  E₊) = 2·M_D − G₊``, so ``‖S‖ = √2·‖S_D‖``;
* ``M_D′ = ((1 + β′)·G₊ − β′·G)/2`` needs only the two carriers.

Column panels
-------------
The unmasked loop works on the transposed (tall, ``n × m``) layout: its
three carriers (``G``, ``M_D`` and a free one) and a copy of ``A`` are
stored with the long side down the rows, so that a column panel of the
TP-matrix is a contiguous row range.
:func:`~repro.core.panels.panel_bounds` cuts the long side into one panel,
or two from 16384 rows on (two at the paper's 10 × 38416, one at the
fleet's 10 × 4096), from the shape alone. One iteration is then:

* the calling thread sums the panels' ``m × m`` Gram partials, in panel
  order, eigendecomposes the sum and builds ``P + I``
  (:meth:`~repro.core.kernels.SVTKernel.shrink_operator`);
* each panel makes one blocked pass
  (:meth:`~repro.core.elementwise.ElementwiseKernel.apg_step_unmasked`):
  per block of rows the shrink GEMM ``M_D·(P + I)`` into the free
  carrier, then the sweep that finishes ``G₊`` there, accumulates its
  ``‖S‖²`` part and writes the next prox input over ``G``; after the
  pass, the partial Gram ``M_D′ᵀ·M_D′`` of that input. ``G₊``, ``M_D′``
  and the old ``M_D`` are the next iteration's ``G``, ``M_D`` and free
  carrier;
* the calling thread adds the ``‖S‖²`` parts, in panel order, for the
  stopping test.

With two panels and a thread budget of two or more
(:func:`~repro.core.panels.thread_budget`) the second panel runs on a
persistent helper thread (counted as ``kernel.apg.threaded_steps``, one
per iteration). A panel computes the same thing on either thread, so a
solve is bitwise the same with one thread or two. ``D`` and ``E`` are
formed once, from the last iteration's ``M_D``, after the residual test
passes, and returned as transposed views of two carriers. Under the full
SVD kernel (short side above 64) the calling thread thresholds the whole
``M_D`` and the panels run the sweep only. Masked, the identities do not
survive ``P_Ω``, so the loop keeps both blocks and their momentum copies
(:meth:`~repro.core.elementwise.ElementwiseKernel.apg_step_masked`) in the
data's own layout. The iteration as stated above, block by block with a
full SVD per step, is the test oracle ``rpca_apg_plain`` in
``tests/oracles.py``; the loop agrees with it to solver tolerance with
equal iteration counts.
"""

from __future__ import annotations

import time

import numpy as np

from .. import observability
from .._validation import as_float_matrix, check_positive
from ..errors import ConvergenceError, ValidationError
from .elementwise import ElementwiseKernel
from .kernels import SolveWorkspace, SVTKernel, validate_backend
from .panels import panel_bounds, run_panels
from .result import SolverResult
from .svd_ops import soft_threshold_into, spectral_norm

__all__ = ["APGResult", "rpca_apg", "default_lambda", "validate_mask"]

# Backward-compatible alias: every solver now returns the shared contract.
APGResult = SolverResult

#: Elements per block of a panel's sweep: whole rows, 512 KiB of float64 per
#: buffer. Larger blocks mean fewer numpy calls, each of which hands the GIL
#: over once when two panels run at once. On a 2-CPU x86-64 VM a warm
#: 10 × 38416 solve took 58 ms here against 64-71 ms at 32768 with two
#: threads, and the same ~105 ms with one.
PANEL_CHUNK = 65536


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
    svd_backend: str = "auto",
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
        Forces the SVT kernel (see :mod:`repro.core.kernels`): ``"auto"``
        (default) picks it from the shape, ``"gram"`` and ``"exact"`` (the
        full SVD) force one. It selects no other loop.
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

    norm_a = float(np.linalg.norm(A))
    if norm_a == 0.0:
        zero = np.zeros_like(A)
        return SolverResult(zero, zero.copy(), 0, 0, True, 0.0)

    # The reference code starts mu at 0.99 * ||A||_2. L = 2 (two blocks).
    mu_top = spectral_norm(A)
    mu_bar = mu_floor_factor * 0.99 * mu_top

    warm = warm_start is not None
    if warm:
        D0, E0 = _unpack_warm_start(warm_start, A.shape)
        mu = max(mu_bar, warm_mu_factor * mu_top)
    else:
        D0 = E0 = None
        mu = 0.99 * mu_top

    if omega is None:
        D, E, rank, iterations, residual, converged = _solve_unmasked(
            A, D0, E0, norm_a, lam=lam_v, mu=mu, mu_bar=mu_bar, eta=eta, tol=tol,
            max_iter=max_iter, svd_backend=svd_backend,
        )
    else:
        D, E, rank, iterations, residual, converged = _solve_masked(
            A, omega, D0, E0, norm_a, lam=lam_v, mu=mu, mu_bar=mu_bar, eta=eta,
            tol=tol, max_iter=max_iter, svd_backend=svd_backend,
        )

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


def _solve_unmasked(
    A, D0, E0, norm_a, *, lam, mu, mu_bar, eta, tol, max_iter, svd_backend
):
    """The unmasked loop over the tall carriers' column panels.

    Returns ``(D, E, rank, iterations, residual, converged)``; ``D`` and
    ``E`` are *A*-shaped views of two of its three carriers.
    """
    m, n = A.shape
    flip = m < n  # carry the long side down the rows
    ws = SolveWorkspace((n, m) if flip else (m, n))
    if flip:
        W = ws.buf("A")
        np.copyto(W, A.T)
    else:
        W = A
    kernel = SVTKernel(W.shape, svd_backend)
    # Carrier G = D − E + A and prox input M_D (see module docstring);
    # F is free. The first momentum weight is 0, so M_D starts at G/2.
    G, MD, F = ws.bufs("G", "MD", "F")
    if D0 is not None:
        np.subtract(D0.T if flip else D0, E0.T if flip else E0, out=G)
        G += W
    else:
        np.copyto(G, W)
    np.multiply(G, 0.5, out=MD)

    bounds = panel_bounds(W.shape[0])

    def split(X: np.ndarray) -> list[np.ndarray]:
        return [X[lo:hi] for lo, hi in bounds]

    pA, pG, pMD, pF = (split(X) for X in (W, G, MD, F))
    ews = [ElementwiseKernel(chunk=PANEL_CHUNK) for _ in bounds]
    # Gram kernel: each panel leaves the partial Gram matrix of its next
    # prox input; their sum, in panel order, is the next Gram matrix.
    grams = [np.dot(x.T, x) for x in pMD] if kernel.choose() == "gram" else None
    shrink: np.ndarray | None = None  # P + I, applied panel by panel
    tau_e = beta = 0.0

    def panel_step(p: int) -> tuple[float, float, float]:
        """One iteration's panel work: ``(‖S‖² part, SVT s, sweep s)``.

        ``G₊`` goes into F and the next prox input over G.
        """
        t0 = time.perf_counter()
        ss, gemm_s = ews[p].apg_step_unmasked(
            pA[p], pG[p], pF[p], pMD[p], tau_e, beta, shrink
        )
        t1 = time.perf_counter()
        if grams is not None:
            np.dot(pG[p].T, pG[p], out=grams[p])
        return ss, gemm_s + time.perf_counter() - t1, t1 - t0 - gemm_s

    t, t_prev = 1.0, 1.0
    rank, residual, converged, iterations = 0, np.inf, False, 0
    for iterations in range(1, max_iter + 1):
        if iterations > 1:
            # G₊ is the carrier, G holds the prox input, M_D is free.
            G, MD, F, pG, pMD, pF = F, G, MD, pF, pG, pMD
        tau_e = lam * mu / 2.0
        if grams is not None:
            gram = grams[0] if len(grams) == 1 else grams[0] + grams[1]
            shrink, rank, _ = kernel.shrink_operator(gram, mu / 2.0)
            if shrink is None:
                np.copyto(F, MD)  # rank 0: D₊ = 0
        else:
            rank = kernel.svt(MD, mu / 2.0, out=F, plus_input=True)[1]
        t_prev, t = t, (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        beta = (t_prev - 1.0) / t
        parts, threaded = run_panels(panel_step, len(bounds))
        ss = sum(part[0] for part in parts)  # in panel order
        # Instrumentation is the calling thread's: it charges the panels it ran.
        own = parts[:1] if threaded else parts
        kernel.charge(sum(part[1] for part in own))
        ews[0].record_step(sum(part[2] for part in own))
        if threaded:
            observability.emit_count("kernel.apg.threaded_steps")
        residual = float(np.sqrt(2.0 * ss) / norm_a)
        mu = max(eta * mu, mu_bar)
        if residual < tol:
            converged = True
            break
    # D₊ and E₊ of the last iteration, formed once from its prox input
    # (MD); F and G hold nothing needed any more.
    D = kernel.low_rank(MD, out=F)
    np.subtract(W, MD, out=G)
    E = soft_threshold_into(G, tau_e, out=MD)
    if flip:
        D, E = D.T, E.T
    return D, E, rank, iterations, residual, converged


def _solve_masked(
    A, omega, D0, E0, norm_a, *, lam, mu, mu_bar, eta, tol, max_iter, svd_backend
):
    """The masked loop: the carrier identities do not survive ``P_Ω``, so it
    keeps both blocks and their momentum copies, with every temporary
    routed through the workspace. Returns what :func:`_solve_unmasked` does.
    """
    kernel = SVTKernel(A.shape, svd_backend)
    ew = ElementwiseKernel()
    ws = SolveWorkspace(A.shape)

    def svt_into(M: np.ndarray, tau: float, out: np.ndarray) -> int:
        return kernel.svt(M, tau, out=out)[1]

    def fro(X: np.ndarray) -> float:
        return float(np.linalg.norm(X))

    D, Dp, Dn, E, Ep, En, YD, YE, G, M, S = ws.bufs(
        "D", "Dp", "Dn", "E", "Ep", "En", "YD", "YE", "G", "M", "S"
    )
    if D0 is not None:
        np.copyto(D, D0)
        np.copyto(E, E0)
    else:
        D.fill(0.0)
        E.fill(0.0)
    np.copyto(Dp, D)
    np.copyto(Ep, E)
    t, t_prev = 1.0, 1.0
    rank, residual, converged, iterations = 0, np.inf, False, 0
    for iterations in range(1, max_iter + 1):
        beta = (t_prev - 1.0) / t
        rank, sd, se = ew.apg_step_masked(
            A, omega, D, Dp, E, Ep, YD, YE, G, M, S, Dn, En,
            beta, mu / 2.0, lam * mu / 2.0, svt_into, fro,
        )
        residual = float(np.sqrt(sd * sd + se * se) / norm_a)
        Dp, D, Dn = D, Dn, Dp
        Ep, E, En = E, En, Ep
        t_prev, t = t, (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        mu = max(eta * mu, mu_bar)
        if residual < tol:
            converged = True
            break
    return D, E, rank, iterations, residual, converged
