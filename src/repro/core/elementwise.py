"""Fused elementwise kernel for the IALM iteration recurrences.

What remains of an IALM step once the partial-SVD kernel layer
(:mod:`repro.core.kernels`) has made thresholding cheap is a chain of
full-array ufunc passes over the ``m × n`` iterate buffers (proximal
inputs, soft thresholding, feasibility gap and the folded dual ascent).
:class:`ElementwiseKernel` owns those recurrences and runs them
cache-block-wise: each step phase walks the buffers once in
``chunk``-element blocks, applying the whole ufunc chain to a block while
it is hot in cache instead of streaming every buffer through memory once
per operation.

The fused steps keep the one-pass-per-operation chain's per-element order
and only block the sweeps, so they are **bit-identical** to that chain by
construction. The chain stays in each step method, as the fallback for
non-contiguous buffers (where flat block views cannot be formed; counted
as ``kernel.ew.fallback``) and as the oracle the bit-identity tests
compare the fused blocks against. The feasibility norm stays a
whole-buffer ``np.linalg.norm`` call in the caller.

Observability: every step emits ``kernel.ew.steps`` (a step count) and
``kernel.ew_seconds`` (elementwise time, excluding the SVT call in the
middle of the step) — the peers of ``kernel.svt.<backend>`` /
``kernel.svt_seconds``.
"""

from __future__ import annotations

import time

import numpy as np

from .. import observability
from ..errors import ValidationError
from .svd_ops import soft_threshold, soft_threshold_into

__all__ = ["DEFAULT_EW_CHUNK", "ElementwiseKernel"]

#: Fused block size in elements: 256 KiB of float64 per buffer.
DEFAULT_EW_CHUNK = 32768


# ---------------------------------------------------------------------------
# Fused path: flatten (m, n) buffers into contiguous 1-D views and walk
# them block-wise.
# ---------------------------------------------------------------------------


def _fusable(*arrays: np.ndarray | None) -> bool:
    return all(a is None or a.flags.c_contiguous for a in arrays)


def _flat(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """1-D views of C-contiguous ``(m, n)`` buffers."""
    return tuple(a.reshape(-1) for a in arrays)


class ElementwiseKernel:
    """Cache-blocked IALM step recurrences over preallocated buffers.

    One kernel serves one solve; it owns no ``m×n`` state of its own —
    all iterate buffers come from the caller's
    :class:`~repro.core.kernels.SolveWorkspace` — only small per-shape row
    scratch for :meth:`shrink`. The step methods take *svt*, the caller's
    singular-value-thresholding callable, and sandwich it between their
    elementwise phases.
    """

    def __init__(self, *, chunk: int = DEFAULT_EW_CHUNK) -> None:
        if int(chunk) < 1:
            raise ValidationError("chunk must be >= 1")
        self.chunk = int(chunk)
        self._row_scratch: dict[tuple[int, ...], np.ndarray] = {}

    # -- observability ----------------------------------------------------
    def record_step(self, elapsed: float) -> None:
        """Count one step and add *elapsed* seconds to the elementwise timer."""
        observability.emit_count("kernel.ew.steps")
        observability.emit_time("kernel.ew_seconds", elapsed)

    def _fused(self, *arrays: np.ndarray | None) -> bool:
        """Whether these buffers take the blocked path (else the ufunc chain)."""
        if _fusable(*arrays):
            return True
        observability.emit_count("kernel.ew.fallback")
        return False

    # -- IALM, unmasked ----------------------------------------------------
    def ialm_step_unmasked(self, A, D, E, Yinv, M, Z, tau_d, tau_e, mu_ratio, svt):
        """One unmasked IALM iteration over preallocated ``(m, n)`` buffers.

        *svt* is the caller's thresholding callable. ``mu_ratio =
        μ_k/μ_{k+1}`` folds the dual ascent (see
        :func:`repro.core.ialm.rpca_ialm`); the feasibility gap is
        left in *Z* for the caller's residual norm.
        """
        fused = self._fused(A, D, E, Yinv, M, Z)
        chunk = self.chunk
        t0 = time.perf_counter()
        if fused:
            a, e, yi, mm = _flat(A, E, Yinv, M)
            for lo in range(0, a.size, chunk):
                sl = slice(lo, lo + chunk)
                mc = mm[sl]
                np.subtract(a[sl], e[sl], out=mc)
                mc += yi[sl]
        else:
            np.subtract(A, E, out=M)
            M += Yinv
        elapsed = time.perf_counter() - t0

        rank = svt(M, tau_d, D)

        t0 = time.perf_counter()
        if fused:
            a, d, e, yi, mm, z = _flat(A, D, E, Yinv, M, Z)
            for lo in range(0, a.size, chunk):
                sl = slice(lo, lo + chunk)
                mc, ec, zc, yc = mm[sl], e[sl], z[sl], yi[sl]
                np.subtract(a[sl], d[sl], out=mc)
                mc += yc
                soft_threshold_into(mc, tau_e, out=ec)
                np.subtract(a[sl], d[sl], out=zc)
                zc -= ec
                yc += zc
                yc *= mu_ratio
        else:
            np.subtract(A, D, out=M)
            M += Yinv
            soft_threshold_into(M, tau_e, out=E)
            np.subtract(A, D, out=Z)
            Z -= E
            # Folded dual ascent: Ȳ_{k+1} = (μ_k/μ_{k+1})·(Ȳ_k + Z_k).
            Yinv += Z
            Yinv *= mu_ratio
        self.record_step(elapsed + time.perf_counter() - t0)
        return rank

    # -- IALM, masked ------------------------------------------------------
    def ialm_step_masked(
        self, A, omega, D, E, W, Yinv, M, Z, tau_d, tau_e, mu_ratio, svt
    ):
        """One masked IALM iteration over preallocated ``(m, n)`` buffers.

        *W* is the completion-trick working matrix ``P_Ω(A) + P_Ω̄(D + E)``.
        """
        fused = self._fused(A, omega, D, E, W, Yinv, M, Z)
        chunk = self.chunk
        t0 = time.perf_counter()
        if fused:
            a, om, d, e, w, yi, mm = _flat(A, omega, D, E, W, Yinv, M)
            for lo in range(0, a.size, chunk):
                sl = slice(lo, lo + chunk)
                wc, mc = w[sl], mm[sl]
                np.add(d[sl], e[sl], out=wc)
                np.copyto(wc, a[sl], where=om[sl])
                np.subtract(wc, e[sl], out=mc)
                mc += yi[sl]
        else:
            np.add(D, E, out=W)
            np.copyto(W, A, where=omega)
            np.subtract(W, E, out=M)
            M += Yinv
        elapsed = time.perf_counter() - t0

        rank = svt(M, tau_d, D)

        t0 = time.perf_counter()
        if fused:
            a, om, d, e, yi, mm, z = _flat(A, omega, D, E, Yinv, M, Z)
            for lo in range(0, a.size, chunk):
                sl = slice(lo, lo + chunk)
                mc, ec, zc, yc = mm[sl], e[sl], z[sl], yi[sl]
                np.subtract(a[sl], d[sl], out=mc)
                mc += yc
                soft_threshold_into(mc, tau_e, out=ec)
                ec *= om[sl]
                np.subtract(a[sl], d[sl], out=zc)
                zc -= ec
                zc *= om[sl]
                yc += zc
                yc *= mu_ratio
        else:
            np.subtract(A, D, out=M)
            M += Yinv
            soft_threshold_into(M, tau_e, out=E)
            E *= omega
            np.subtract(A, D, out=Z)
            Z -= E
            Z *= omega
            Yinv += Z
            Yinv *= mu_ratio
        self.record_step(elapsed + time.perf_counter() - t0)
        return rank

    # -- streaming row shrinkage ------------------------------------------
    def shrink(self, x: np.ndarray, tau: float) -> np.ndarray:
        """Soft-threshold *x* — the streaming fold's per-row shrinkage.

        Equal under ``==`` to :func:`~repro.core.svd_ops.soft_threshold`
        (only the sign of zeros can differ), computed by
        :func:`~repro.core.svd_ops.soft_threshold_into` into kernel-owned
        scratch (no temporaries). The result is a buffer owned by this
        kernel, valid until the next :meth:`shrink` call — callers that retain it must copy it (the
        streaming window slide does). Non-contiguous
        input falls back to a fresh :func:`soft_threshold` array.
        """
        t0 = time.perf_counter()
        if not self._fused(x):
            out = soft_threshold(x, tau)
            self.record_step(time.perf_counter() - t0)
            return out
        out = self._row_scratch.get(x.shape)
        if out is None:
            out = np.empty(x.shape, dtype=np.float64)
            self._row_scratch[x.shape] = out
        soft_threshold_into(x, tau, out=out)
        self.record_step(time.perf_counter() - t0)
        return out
