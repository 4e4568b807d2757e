"""Proximal operators and SVD helpers shared by the RPCA solvers.

Two proximal maps do all the work in RPCA:

* :func:`soft_threshold` — the prox of the (elementwise) L1 norm; shrinks
  every entry toward zero by ``tau`` and produces the sparse component.
* :func:`singular_value_threshold` — the prox of the nuclear norm; soft-
  thresholds the singular values and produces the low-rank component.

``truncated_svd`` wraps the thin-SVD call (``full_matrices=False``) that the
scientific-Python optimization guide singles out: for the tall-skinny or
short-fat matrices RPCA sees (``n_snapshots × N²`` with n_snapshots ≈ 10),
the thin SVD is orders of magnitude cheaper than the full decomposition.

``spectral_norm`` computes ``σ₁ = ||A||₂`` without a full SVD — the
solvers only need the top singular value at initialization (APG's
continuation start, IALM's dual scaling), and paying a whole ``gesdd`` for
one number is the kind of waste the kernel layer (:mod:`repro.core.kernels`)
exists to remove.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .._validation import as_float_matrix, check_nonnegative

__all__ = [
    "soft_threshold",
    "soft_threshold_into",
    "singular_value_threshold",
    "spectral_norm",
    "truncated_svd",
]


def soft_threshold_into(
    x: np.ndarray, tau: float, out: np.ndarray
) -> np.ndarray:
    """In-place soft threshold ``x − clip(x, −τ, τ)``: two passes.

    Unvalidated hot-loop core shared by :func:`soft_threshold` and the
    fused elementwise kernel (:mod:`repro.core.elementwise`), which applies
    it block by block; both passes are elementwise ufuncs, so blocking
    cannot change the result. Equal under ``==`` to
    ``sign(x)·max(|x| − τ, 0)``: above ``τ`` both compute ``x − τ``, below
    ``−τ`` both round ``|x| − τ`` sign-symmetrically, and inside the band
    both give a zero (``x − x`` is ``+0.0``; only the sign of that zero
    can differ). *out* must not alias *x*.
    """
    np.clip(x, -tau, tau, out=out)
    np.subtract(x, out, out=out)
    return out


def soft_threshold(
    x: np.ndarray, tau: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Elementwise soft-thresholding (shrinkage) operator.

    ``S_tau(x) = sign(x) * max(|x| - tau, 0)`` — the proximal operator of
    ``tau * ||·||_1``.

    With *out* the result is computed in a fixed number of in-place passes
    into the given buffer (no temporaries) — the hot-loop spelling used by
    the fast solver paths. The two spellings agree under ``==``; only the
    sign bit of shrunk-away zeros can differ, which no consumer observes.
    The allocation-free form is therefore opt-in, keeping the historical
    path bit-identical.
    """
    check_nonnegative(tau, "tau")
    if out is None:
        return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)
    return soft_threshold_into(x, tau, out)


def spectral_norm(a: np.ndarray, *, tol: float = 1e-9, max_iter: int = 200) -> float:
    """Top singular value ``σ₁ = ||a||₂`` without a full SVD.

    Small short side (≤ 64, which covers every TP-matrix the paper's
    pipeline builds): form the Gram matrix on the short side and take the
    square root of its top eigenvalue — exact to LAPACK eigensolver
    accuracy at ``O(min(m,n)²·max(m,n))`` cost. Larger matrices fall back
    to power iteration on ``a·aᵀ`` (deterministic fixed-seed start vector),
    converged when the Rayleigh estimate moves by less than ``tol``
    relative per step.
    """
    m = as_float_matrix(a, "a")
    rows, cols = m.shape
    if min(rows, cols) <= 64:
        gram = m @ m.T if rows <= cols else m.T @ m
        w = np.linalg.eigvalsh(gram)
        return float(np.sqrt(max(float(w[-1]), 0.0)))
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(cols)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:  # pragma: no cover - standard_normal never returns all-zero
        return 0.0
    v /= nv
    sigma = 0.0
    for _ in range(max_iter):
        u = m @ v
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            return 0.0
        u /= nu
        v = m.T @ u
        sigma_new = float(np.linalg.norm(v))
        if sigma_new == 0.0:
            return 0.0
        v /= sigma_new
        if abs(sigma_new - sigma) <= tol * sigma_new:
            return sigma_new
        sigma = sigma_new
    return sigma


def truncated_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``a = U @ diag(s) @ Vt`` with LAPACK gesdd, gesvd fallback.

    ``gesdd`` (divide and conquer) is the fast default but can fail to
    converge on ill-conditioned inputs; the classical ``gesvd`` is slower
    but robust, so it serves as the fallback.
    """
    m = as_float_matrix(a, "a")
    try:
        u, s, vt = scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesdd")
    except np.linalg.LinAlgError:  # pragma: no cover - rare LAPACK failure
        u, s, vt = scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesvd")
    return u, s, vt


def singular_value_threshold(
    a: np.ndarray, tau: float
) -> tuple[np.ndarray, int, float]:
    """Singular value thresholding ``D_tau(a)`` (Cai, Candès & Shen).

    Returns ``(D, rank, top_sv)`` where ``D = U @ diag(max(s - tau, 0)) @ Vt``,
    ``rank`` is the number of singular values exceeding ``tau``, and
    ``top_sv`` is the largest singular value of *a* (used by APG stopping
    criteria and continuation schedules).
    """
    check_nonnegative(tau, "tau")
    u, s, vt = truncated_svd(a)
    shrunk = s - tau
    rank = int(np.count_nonzero(shrunk > 0.0))
    if rank == 0:
        return np.zeros_like(np.asarray(a, dtype=np.float64)), 0, float(s[0]) if s.size else 0.0
    d = (u[:, :rank] * shrunk[:rank]) @ vt[:rank]
    return d, rank, float(s[0])
