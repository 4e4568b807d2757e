"""Fused elementwise kernel for the APG/IALM iteration recurrences.

What remains of an APG/IALM step once the partial-SVD kernel layer
(:mod:`repro.core.kernels`) has made thresholding cheap is a chain of
full-array ufunc passes over the ``m × n`` iterate buffers (momentum
extrapolation, proximal inputs, soft thresholding, stationarity and
feasibility updates). :class:`ElementwiseKernel` owns those recurrences
and runs them cache-block-wise: each step phase walks the buffers once in
``chunk``-element blocks, applying the whole ufunc chain to a block while
it is hot in cache instead of streaming every buffer through memory once
per operation.

Two kinds of step live here:

* **Unmasked APG** (:meth:`ElementwiseKernel.apg_step_unmasked`) is one
  sweep between the iteration's two GEMMs. The loop carries ``G = D − E +
  A`` instead of the blocks (see :func:`repro.core.apg._rpca_apg_fast`),
  so a single pass over four ``m × n`` buffers finishes the carrier,
  accumulates the stationarity norm block by block and writes the next
  prox input. It restructures the arithmetic, so it has no ufunc chain to
  fall back to; its oracle is the block-by-block loop in the test suite,
  which it matches to ~1e-12 with equal iteration counts. Only the
  residual's block-wise sum depends on the chunk size.
* **Masked APG and IALM** keep the historical one-pass-per-operation
  chain's per-element order and only block the sweeps, so they are
  **bit-identical** to that chain by construction. The chain stays in each
  of those step methods, as the fallback for non-contiguous buffers (where
  flat block views cannot be formed; counted as ``kernel.ew.fallback``)
  and as the oracle the bit-identity tests compare the fused blocks
  against. Their residual/feasibility norms stay whole-buffer
  ``np.linalg.norm`` calls in the caller.

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

#: Fused block size in elements: 256 KiB of float64 per buffer. On a 2-CPU
#: x86-64 VM the unmasked APG sweep was fastest here (8192 and 65536 were
#: 1.3x and 1.1x slower at 10 × 38416).
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
    """Cache-blocked APG/IALM step recurrences over preallocated buffers.

    One kernel serves one solve; it owns no ``m×n`` state of its own —
    all iterate buffers come from the caller's
    :class:`~repro.core.kernels.SolveWorkspace` — only one block of
    scratch for the unmasked APG sweep and small per-shape row scratch for
    :meth:`shrink`. The masked APG and IALM step methods take *svt*, the
    caller's singular-value-thresholding callable, and sandwich it between
    their elementwise phases.
    """

    def __init__(self, *, chunk: int = DEFAULT_EW_CHUNK) -> None:
        if int(chunk) < 1:
            raise ValidationError("chunk must be >= 1")
        self.chunk = int(chunk)
        self._row_scratch: dict[tuple[int, ...], np.ndarray] = {}
        self._block: np.ndarray | None = None

    # -- observability ----------------------------------------------------
    def _emit_step(self, elapsed: float) -> None:
        observability.emit_count("kernel.ew.steps")
        observability.emit_time("kernel.ew_seconds", elapsed)

    def _fused(self, *arrays: np.ndarray | None) -> bool:
        """Whether these buffers take the blocked path (else the ufunc chain)."""
        if _fusable(*arrays):
            return True
        observability.emit_count("kernel.ew.fallback")
        return False

    # -- APG, unmasked -----------------------------------------------------
    def apg_step_unmasked(self, A, G, Gn, MD, MDn, tau_e, beta):
        """The elementwise half of one unmasked APG iteration, in one sweep.

        On entry *Gn* holds ``D₊ + M_D = (P + I)·M_D``, from
        ``SVTKernel.svt(M_D, τ_D, out=Gn, plus_input=True)``, and *G* the
        previous carrier ``D − E + A``. One blocked pass
        finishes the carrier, ``G₊ = (P + I)·M_D + clip(A − M_D, ±τ_E)``
        (in place in *Gn*), accumulates the stationarity norm ``‖S‖²`` of
        ``S = 2·M_D − G₊`` and writes the next prox input ``M_D′ =
        ((1 + β′)·G₊ − β′·G)/2`` into *MDn*, *beta* being the next
        iteration's momentum weight. Returns ``‖S‖²``; the residual is
        ``√(2·‖S‖²)/‖A‖``. All buffers must be C-contiguous (the solve
        workspace's are).
        """
        chunk = self.chunk
        t0 = time.perf_counter()
        a, g, gn, md, mdn = _flat(A, G, Gn, MD, MDn)
        if self._block is None or self._block.size < min(a.size, chunk):
            self._block = np.empty(min(a.size, chunk), dtype=np.float64)
        tmp = self._block
        up, down = 0.5 * (1.0 + beta), 0.5 * beta
        ss = 0.0
        for lo in range(0, a.size, chunk):
            sl = slice(lo, lo + chunk)
            gc, mc, nc = gn[sl], md[sl], mdn[sl]
            c = tmp[: gc.size]
            np.subtract(a[sl], mc, out=c)
            np.clip(c, -tau_e, tau_e, out=c)
            gc += c
            np.multiply(mc, 2.0, out=c)
            c -= gc
            ss += float(np.dot(c, c))
            np.multiply(gc, up, out=nc)
            np.multiply(g[sl], down, out=c)
            nc -= c
        self._emit_step(time.perf_counter() - t0)
        return ss

    # -- APG, masked -------------------------------------------------------
    def apg_step_masked(
        self, A, omega, D, Dp, E, Ep, YD, YE, G, M, S, Dn, En,
        beta, tau_d, tau_e, svt, norms,
    ):
        """One masked APG iteration over preallocated ``(m, n)`` buffers.

        The two stationarity norms must be taken mid-step (``G`` is reused
        between the blocks), so *norms* is a Frobenius-norm callable and
        the triple ``(rank, ‖S_D‖, ‖S_E‖)`` is returned. The norm itself is
        never chunked (see the module docstring).
        """
        fused = self._fused(A, omega, D, Dp, E, Ep, YD, YE, G, M, S, Dn, En)
        chunk = self.chunk
        t0 = time.perf_counter()
        if fused:
            a, om, d, dp, e, ep, yd, ye, g, mm = _flat(
                A, omega, D, Dp, E, Ep, YD, YE, G, M
            )
            for lo in range(0, a.size, chunk):
                sl = slice(lo, lo + chunk)
                ydc, yec, gc = yd[sl], ye[sl], g[sl]
                np.subtract(d[sl], dp[sl], out=ydc)
                ydc *= beta
                ydc += d[sl]
                np.subtract(e[sl], ep[sl], out=yec)
                yec *= beta
                yec += e[sl]
                np.add(ydc, yec, out=gc)
                gc -= a[sl]
                gc *= 0.5
                gc *= om[sl]
                np.subtract(ydc, gc, out=mm[sl])
        else:
            np.subtract(D, Dp, out=YD)
            YD *= beta
            YD += D
            np.subtract(E, Ep, out=YE)
            YE *= beta
            YE += E
            # G = P_Ω(Y_D + Y_E − A)/2
            np.add(YD, YE, out=G)
            G -= A
            G *= 0.5
            G *= omega
            np.subtract(YD, G, out=M)
        elapsed = time.perf_counter() - t0

        rank = svt(M, tau_d, Dn)

        t0 = time.perf_counter()
        if fused:
            om, yd, ye, g, mm, dn, en, s = _flat(omega, YD, YE, G, M, Dn, En, S)
            for lo in range(0, om.size, chunk):
                sl = slice(lo, lo + chunk)
                mc, ec, sc, gc = mm[sl], en[sl], s[sl], g[sl]
                np.subtract(ye[sl], gc, out=mc)
                soft_threshold_into(mc, tau_e, out=ec)
                ec *= om[sl]
                np.add(dn[sl], ec, out=sc)
                sc -= yd[sl]
                sc -= ye[sl]
                sc *= om[sl]
                np.subtract(yd[sl], dn[sl], out=gc)
                gc *= 2.0
                gc += sc
        else:
            np.subtract(YE, G, out=M)
            soft_threshold_into(M, tau_e, out=En)
            En *= omega  # a transient error needs a witness
            # diff = P_Ω(D₊ + E₊ − Y_D − Y_E); S_X = 2(Y_X − X₊) + diff
            np.add(Dn, En, out=S)
            S -= YD
            S -= YE
            S *= omega
            np.subtract(YD, Dn, out=G)
            G *= 2.0
            G += S
        elapsed += time.perf_counter() - t0
        sd = norms(G)

        t0 = time.perf_counter()
        if fused:
            ye, en, g, s = _flat(YE, En, G, S)
            for lo in range(0, ye.size, chunk):
                sl = slice(lo, lo + chunk)
                gc = g[sl]
                np.subtract(ye[sl], en[sl], out=gc)
                gc *= 2.0
                gc += s[sl]
        else:
            np.subtract(YE, En, out=G)
            G *= 2.0
            G += S
        self._emit_step(elapsed + time.perf_counter() - t0)
        se = norms(G)
        return rank, sd, se

    # -- IALM, unmasked ----------------------------------------------------
    def ialm_step_unmasked(self, A, D, E, Yinv, M, Z, tau_d, tau_e, mu_ratio, svt):
        """One unmasked IALM iteration over preallocated ``(m, n)`` buffers.

        *svt* is the caller's thresholding callable. ``mu_ratio =
        μ_k/μ_{k+1}`` folds the dual ascent (see
        :func:`repro.core.ialm._rpca_ialm_fast`); the feasibility gap is
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
        self._emit_step(elapsed + time.perf_counter() - t0)
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
        self._emit_step(elapsed + time.perf_counter() - t0)
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
            self._emit_step(time.perf_counter() - t0)
            return out
        out = self._row_scratch.get(x.shape)
        if out is None:
            out = np.empty(x.shape, dtype=np.float64)
            self._row_scratch[x.shape] = out
        soft_threshold_into(x, tau, out=out)
        self._emit_step(time.perf_counter() - t0)
        return out
