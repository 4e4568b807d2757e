"""Fused elementwise kernel for the APG/IALM iteration recurrences.

The partial-SVD kernel layer (:mod:`repro.core.kernels`) took singular
value thresholding from ~90% of solve time down to ~28%; what remains of
every APG/IALM step is 6–10 separate full-array ufunc passes over the
``m × n`` iterate buffers (momentum extrapolation, proximal inputs, soft
thresholding, stationarity/feasibility updates). :class:`ElementwiseKernel`
owns those recurrences and runs them cache-block-wise: each step phase
walks the buffers once in ``chunk``-element blocks, applying the whole
ufunc chain to a block while it is hot in cache instead of streaming every
buffer through memory once per operation.

Elementwise ufuncs commute with chunking, so the fused result is
**bit-identical** to the historical one-pass-per-operation ufunc chain by
construction. That chain stays in each step method, for two reasons: it is
the fallback for non-contiguous buffers, where flat block views cannot be
formed (counted as ``kernel.ew.fallback``), and it is the oracle the
bit-identity tests compare the fused blocks against.

Residual/feasibility **norms** are deliberately *not* part of this layer:
``np.linalg.norm`` over a full buffer stays a single pairwise-summed call,
because chunked partial sums would change summation order and break the
bitwise iteration-count parity with the reference chain.

Observability: every step emits ``kernel.ew.steps`` (a step count) and
``kernel.ew_seconds`` (elementwise time, excluding the SVT call in the
middle of the step) — the peers of ``kernel.svt.<backend>`` /
``kernel.svt_seconds``.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from .. import observability
from ..errors import ValidationError
from .svd_ops import soft_threshold, soft_threshold_into

__all__ = ["DEFAULT_EW_CHUNK", "ElementwiseKernel"]

#: Fused block size in elements: 256 KiB of float64 — comfortably inside a
#: per-core L2 slice together with the ~8 buffers a step touches.
DEFAULT_EW_CHUNK = 32768


# ---------------------------------------------------------------------------
# Fused drivers: flatten (m, n) — or each slice of (B, m, n) — into
# contiguous 1-D views and walk them block-wise.
# ---------------------------------------------------------------------------


def _fusable(*arrays: np.ndarray | None) -> bool:
    return all(a is None or a.flags.c_contiguous for a in arrays)


def _flat_slices(arrays: tuple[np.ndarray, ...]):
    """Yield ``(slice_index, flat_views)`` per matrix of a (stacked) group."""
    lead = arrays[0]
    if lead.ndim == 2:
        yield 0, tuple(a.reshape(-1) for a in arrays)
    else:
        for i in range(lead.shape[0]):
            yield i, tuple(a[i].reshape(-1) for a in arrays)


def _tau_at(tau: Any, i: int) -> Any:
    """Per-slice threshold: ``(B, 1, 1)`` arrays index, scalars pass through.

    Array thresholds stay numpy scalars (not ``float()``-coerced) so mixed
    float32-buffer/float64-threshold promotion matches the reference
    broadcast exactly — a bitwise requirement for the fused path in the
    batch float32 mode.
    """
    if isinstance(tau, np.ndarray):
        return tau[i, 0, 0]
    return tau


class ElementwiseKernel:
    """Cache-blocked APG/IALM step recurrences over preallocated buffers.

    One kernel serves one solve (or one batched group); it owns no ``m×n``
    state of its own — all iterate buffers come from the caller's
    :class:`~repro.core.kernels.SolveWorkspace` — only small per-shape row
    scratch for :meth:`shrink`. Every step method matches the historical
    module-level step functions argument for argument, with *svt* the
    caller's singular-value-thresholding callable sandwiched between the
    elementwise phases.
    """

    def __init__(self, *, chunk: int = DEFAULT_EW_CHUNK) -> None:
        if int(chunk) < 1:
            raise ValidationError("chunk must be >= 1")
        self.chunk = int(chunk)
        self._row_scratch: dict[tuple[int, ...], np.ndarray] = {}

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
    def apg_step_unmasked(
        self, A, F, Fp, T, MD, ME, Dn, En, S, beta, tau_d, tau_e, svt
    ):
        """One unmasked APG iteration over preallocated buffers.

        Arrays may carry a leading batch axis, with *tau_d*/*tau_e* either
        scalars or per-matrix ``(B, 1, 1)`` thresholds and *svt* the
        matching thresholding callable (returns the surviving rank, or a
        rank vector for a stack). Writes the new momentum carrier
        ``D₊ − E₊`` into *Fp* (callers swap the names afterwards) and the
        stationarity block ``S_D`` into *S*; the residual norm stays with
        the caller, which is where single and batched paths differ.
        """
        fused = self._fused(A, F, Fp, T, MD, ME, Dn, En, S)
        chunk = self.chunk
        t0 = time.perf_counter()
        if fused:
            for _, (a, f, fp, t, md, s) in _flat_slices((A, F, Fp, T, MD, S)):
                for lo in range(0, a.size, chunk):
                    sl = slice(lo, lo + chunk)
                    tc, mc = t[sl], md[sl]
                    np.multiply(f[sl], 1.0 + beta, out=tc)
                    np.multiply(fp[sl], beta, out=s[sl])
                    np.subtract(tc, s[sl], out=tc)
                    np.add(tc, a[sl], out=mc)
                    mc *= 0.5
        else:
            # T = Y_D − Y_E = (1 + β)·F − β·F_prev
            np.multiply(F, 1.0 + beta, out=T)
            np.multiply(Fp, beta, out=S)
            np.subtract(T, S, out=T)
            # Proximal input M_D = (T + A)/2.
            np.add(T, A, out=MD)
            MD *= 0.5
        elapsed = time.perf_counter() - t0

        rank = svt(MD, tau_d, Dn)

        t0 = time.perf_counter()
        if fused:
            for i, (a, md, me, t, dn, en, fp, s) in _flat_slices(
                (A, MD, ME, T, Dn, En, Fp, S)
            ):
                te = _tau_at(tau_e, i)
                for lo in range(0, a.size, chunk):
                    sl = slice(lo, lo + chunk)
                    mec = me[sl]
                    np.subtract(a[sl], md[sl], out=mec)
                    soft_threshold_into(mec, te, out=en[sl])
                    np.subtract(dn[sl], en[sl], out=fp[sl])
                    np.subtract(t[sl], fp[sl], out=s[sl])
        else:
            np.subtract(A, MD, out=ME)  # M_E = A − M_D
            soft_threshold_into(ME, tau_e, out=En)
            # Stationarity: S_D = T − (D₊ − E₊), ‖S‖ = √2·‖S_D‖.
            np.subtract(Dn, En, out=Fp)
            np.subtract(T, Fp, out=S)
        self._emit_step(elapsed + time.perf_counter() - t0)
        return rank

    # -- APG, masked -------------------------------------------------------
    def apg_step_masked(
        self, A, omega, D, Dp, E, Ep, YD, YE, G, M, S, Dn, En,
        beta, tau_d, tau_e, svt, norms,
    ):
        """One masked APG iteration over preallocated buffers.

        Batch-axis-capable like :meth:`apg_step_unmasked`. The two
        stationarity norms must be taken mid-step (``G`` is reused between
        the blocks), so *norms* is a Frobenius-norm callable — a scalar for
        a single matrix, a per-slice vector for a stack — and the triple
        ``(rank, ‖S_D‖, ‖S_E‖)`` is returned. The norm itself is never
        chunked (see the module docstring).
        """
        fused = self._fused(A, omega, D, Dp, E, Ep, YD, YE, G, M, S, Dn, En)
        chunk = self.chunk
        t0 = time.perf_counter()
        if fused:
            for _, (a, om, d, dp, e, ep, yd, ye, g, mm) in _flat_slices(
                (A, omega, D, Dp, E, Ep, YD, YE, G, M)
            ):
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
            for i, (om, yd, ye, g, mm, dn, en, s) in _flat_slices(
                (omega, YD, YE, G, M, Dn, En, S)
            ):
                te = _tau_at(tau_e, i)
                for lo in range(0, om.size, chunk):
                    sl = slice(lo, lo + chunk)
                    mc, ec, sc, gc = mm[sl], en[sl], s[sl], g[sl]
                    np.subtract(ye[sl], gc, out=mc)
                    soft_threshold_into(mc, te, out=ec)
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
            for _, (ye, en, g, s) in _flat_slices((YE, En, G, S)):
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
        """One unmasked IALM iteration over preallocated buffers.

        Arrays may carry a leading batch axis, with *tau_d*/*tau_e*/
        *mu_ratio* scalars or per-matrix ``(B, 1, 1)`` values and *svt* the
        matching thresholding callable. ``mu_ratio = μ_k/μ_{k+1}`` folds
        the dual ascent (see :func:`repro.core.ialm._rpca_ialm_fast`); the
        feasibility gap is left in *Z* for the caller's residual norm.
        """
        fused = self._fused(A, D, E, Yinv, M, Z)
        chunk = self.chunk
        t0 = time.perf_counter()
        if fused:
            for _, (a, e, yi, mm) in _flat_slices((A, E, Yinv, M)):
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
            for i, (a, d, e, yi, mm, z) in _flat_slices((A, D, E, Yinv, M, Z)):
                te = _tau_at(tau_e, i)
                ratio = _tau_at(mu_ratio, i)
                for lo in range(0, a.size, chunk):
                    sl = slice(lo, lo + chunk)
                    mc, ec, zc, yc = mm[sl], e[sl], z[sl], yi[sl]
                    np.subtract(a[sl], d[sl], out=mc)
                    mc += yc
                    soft_threshold_into(mc, te, out=ec)
                    np.subtract(a[sl], d[sl], out=zc)
                    zc -= ec
                    yc += zc
                    yc *= ratio
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
        """One masked IALM iteration over preallocated buffers.

        Batch-axis-capable like :meth:`ialm_step_unmasked`; *W* is the
        completion-trick working matrix ``P_Ω(A) + P_Ω̄(D + E)``.
        """
        fused = self._fused(A, omega, D, E, W, Yinv, M, Z)
        chunk = self.chunk
        t0 = time.perf_counter()
        if fused:
            for _, (a, om, d, e, w, yi, mm) in _flat_slices(
                (A, omega, D, E, W, Yinv, M)
            ):
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
            for i, (a, om, d, e, yi, mm, z) in _flat_slices(
                (A, omega, D, E, Yinv, M, Z)
            ):
                te = _tau_at(tau_e, i)
                ratio = _tau_at(mu_ratio, i)
                for lo in range(0, a.size, chunk):
                    sl = slice(lo, lo + chunk)
                    mc, ec, zc, yc = mm[sl], e[sl], z[sl], yi[sl]
                    np.subtract(a[sl], d[sl], out=mc)
                    mc += yc
                    soft_threshold_into(mc, te, out=ec)
                    ec *= om[sl]
                    np.subtract(a[sl], d[sl], out=zc)
                    zc -= ec
                    zc *= om[sl]
                    yc += zc
                    yc *= ratio
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

        Applies the arithmetic of :func:`~repro.core.svd_ops.soft_threshold`
        through kernel-owned scratch (no temporaries), bit for bit. The
        result is a buffer owned by this kernel, valid until the next
        :meth:`shrink` call — callers that retain it must copy it (the
        streaming window slide does, via ``np.vstack``). Non-contiguous
        input falls back to a fresh :func:`soft_threshold` array.
        """
        t0 = time.perf_counter()
        if not self._fused(x):
            out = soft_threshold(x, tau)
            self._emit_step(time.perf_counter() - t0)
            return out
        key = x.shape
        bufs = self._row_scratch.get(key)
        if bufs is None:
            bufs = np.empty((2,) + key, dtype=np.float64)
            self._row_scratch[key] = bufs
        out, sgn = bufs[0], bufs[1]
        # sign(x)·max(|x|−τ, 0) with every pass in place — the same
        # per-element arithmetic as the reference spelling.
        np.abs(x, out=out)
        out -= tau
        np.maximum(out, 0.0, out=out)
        np.sign(x, out=sgn)
        out *= sgn
        self._emit_step(time.perf_counter() - t0)
        return out
