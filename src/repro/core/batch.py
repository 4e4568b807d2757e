"""Batched RPCA: B clusters' TP-matrices as one stacked solver loop.

A fleet monitoring many clusters re-runs Algorithm 1 on one small
``n_snapshots × N²`` TP-matrix per cluster. Each solve is elementwise-bound
(BENCH_rpca.json: with the partial-SVD kernels the SVT is ~28% of runtime,
the rest is shrinkage/momentum/residual traffic), and a single 10 × 38416
matrix is too small to keep the memory system busy. This module stacks B
independent problems into one ``(B, m, n)`` tensor and runs the *same*
per-iteration recurrence (the :class:`~repro.core.elementwise.ElementwiseKernel`
step methods — shared with the single-matrix fast paths) over the stack, so
every ufunc and GEMM touches B matrices per pass.

Bit-parity design
-----------------
Every operation in the batched loop is *slice-separable*: elementwise ufuncs
trivially, and the batched GEMM / stacked ``eigh`` under
:class:`~repro.core.kernels.BatchedSVTKernel` by construction (one LAPACK /
BLAS call per slice internally). Per-matrix scalars (``μ``, ``‖A‖_F``,
thresholds) ride along as ``(B,)`` vectors broadcast per slice. Slice ``b``
of a batched solve is therefore bit-identical to the single-matrix
``gram``-backend solve of matrix ``b`` — independent of batch composition,
iteration-by-iteration. Two things follow:

* converged matrices can *drop out* (swap-compaction below) without
  perturbing the remaining solves, and
* any sharding of a fleet across workers produces bit-identical results to
  a serial run — the property the fleet sweep asserts unconditionally.

The per-matrix solvers (``svd_backend="exact"``/``"gram"``) stay untouched
and serve as the bit-parity oracle; the batched path agrees with ``gram``
bitwise and with ``exact`` to solver tolerance (the PR-5 bound).

Convergence dropout
-------------------
Each iteration computes per-matrix residuals; matrices that meet the
tolerance retire immediately: their result is copied out and the last
active slice is swapped into their position across all state buffers (the
``slots`` vector remembers original indices). Active slices stay in a
contiguous ``[:k]`` prefix, so the batch never stalls on its slowest
member and the elementwise passes shrink as the batch drains.

float32 iterate mode
--------------------
``dtype="float32"`` runs the stacked iteration in single precision to a
loose tolerance, then re-runs the float64 loop warm-started from the
float32 split (one refinement pass, counted as
``kernel.batch.refine_passes``). Half the memory traffic for the bulk of
the iterations; final results are float64. The parity guarantees above
apply only to the default ``"float64"`` mode.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

import numpy as np

from .. import observability
from .._validation import as_float_matrix, check_positive
from ..errors import ValidationError
from .apg import default_lambda, validate_mask
from .elementwise import ElementwiseKernel
from .kernels import _GRAM_MAX_SIDE, BatchedSVTKernel, BatchRankPredictor
from .result import SolverResult
from .solvers import solve_rpca
from .svd_ops import spectral_norm

__all__ = [
    "BATCH_DTYPES",
    "BatchedSolveWorkspace",
    "solve_rpca_batch",
    "validate_batch_dtype",
]

BATCH_DTYPES = ("float64", "float32")

# Loose stationarity tolerance for the float32 iterate phase: tighter is
# unreachable in single precision (eps ≈ 1.2e-7 on unit-scale data).
_F32_TOL = 1e-5

# Keyword arguments the batched loops implement per solver. Anything else
# (warm_start, raise_on_fail, svd_backend, ...) routes to the certified
# per-matrix fallback, which accepts the full solver surface.
_APG_BATCH_KWARGS = frozenset({"tol", "max_iter", "eta", "mu_floor_factor"})
_IALM_BATCH_KWARGS = frozenset({"tol", "max_iter", "rho"})


def validate_batch_dtype(dtype: str) -> str:
    """Return *dtype* if it names a supported batch iterate dtype, else raise."""
    if dtype not in BATCH_DTYPES:
        raise ValidationError(
            f"unknown batch dtype {dtype!r}; available: {list(BATCH_DTYPES)}"
        )
    return dtype


class BatchedSolveWorkspace:
    """Preallocated ``(B, m, n)`` stacked buffers, handed out by name.

    The batched counterpart of :class:`~repro.core.kernels.SolveWorkspace`:
    a batched solve asks for its stacked iteration buffers once, before the
    loop; every iteration reuses them through ``out=`` ufunc calls over the
    active ``[:k]`` prefix. Buffers may carry a per-name dtype override
    (the float32 iterate phase keys its buffers under ``f32.``-prefixed
    names), and every fresh allocation emits a
    ``kernel.batch.workspace.alloc_bmn`` count so the no-allocation
    property of steady-state iterations stays a counter assertion.

    One workspace serves every batch of its shape — the engine keeps one
    per ``(B, m, n)`` and threads it through successive sweeps.
    """

    __slots__ = ("shape", "dtype", "_bufs")

    def __init__(
        self, shape: tuple[int, int, int], dtype: np.dtype | str = np.float64
    ) -> None:
        b, m, n = (int(s) for s in shape)
        if b < 1 or m < 1 or n < 1:
            raise ValidationError(f"workspace shape must be positive, got {shape}")
        self.shape = (b, m, n)
        self.dtype = np.dtype(dtype)
        self._bufs: dict[str, np.ndarray] = {}

    def buf(self, name: str, dtype: np.dtype | str | None = None) -> np.ndarray:
        """The stacked buffer registered under *name* (allocated on first use)."""
        want = self.dtype if dtype is None else np.dtype(dtype)
        arr = self._bufs.get(name)
        if arr is None:
            arr = np.empty(self.shape, dtype=want)
            self._bufs[name] = arr
            observability.emit_count("kernel.batch.workspace.alloc_bmn")
        elif arr.dtype != want:
            raise ValidationError(
                f"workspace buffer {name!r} is {arr.dtype}, requested {want}"
            )
        return arr

    def bufs(
        self, *names: str, dtype: np.dtype | str | None = None
    ) -> tuple[np.ndarray, ...]:
        """Several buffers at once, in the order requested."""
        return tuple(self.buf(name, dtype=dtype) for name in names)

    @property
    def allocated(self) -> int:
        """Number of ``B × m × n`` buffers allocated so far."""
        return len(self._bufs)


class _StackResult:
    """Per-group result accumulator for one batched loop run."""

    __slots__ = (
        "low_rank", "sparse", "rank", "iterations",
        "converged", "residual", "loop_iterations",
    )

    def __init__(self, b: int, m: int, n: int, dtype: np.dtype) -> None:
        self.low_rank = np.zeros((b, m, n), dtype=dtype)
        self.sparse = np.zeros((b, m, n), dtype=dtype)
        self.rank = np.zeros(b, dtype=np.int64)
        self.iterations = np.zeros(b, dtype=np.int64)
        self.converged = np.zeros(b, dtype=bool)
        self.residual = np.zeros(b, dtype=np.float64)
        self.loop_iterations = 0


def _slice_norms(stack: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """Per-slice Frobenius norms of ``stack[:k]`` into ``out[:k]``.

    An explicit loop of single-matrix ``np.linalg.norm`` calls: each slice
    is contiguous, so every norm is the same ``ddot`` the single-matrix
    solver performs — bit-identical, which a vectorized
    ``einsum``/``sum`` reduction would not be.
    """
    for i in range(k):
        out[i] = np.linalg.norm(stack[i])
    return out[:k]


def _emit_loop_counters(res: _StackResult, participating: np.ndarray) -> None:
    """Batch-occupancy counters for one finished group loop."""
    loop_iters = res.loop_iterations
    slice_iters = int(res.iterations[participating].sum())
    saved = int(loop_iters * participating.size - slice_iters)
    observability.emit_count("kernel.batch.iterations", loop_iters)
    observability.emit_count("kernel.batch.active_iterations", slice_iters)
    observability.emit_count("kernel.batch.dropout_iterations", saved)


def _retire(
    res: _StackResult,
    pos: int,
    k: int,
    it: int,
    converged: bool,
    state: tuple[np.ndarray, ...],
    vectors: tuple[np.ndarray, ...],
    slots: np.ndarray,
    D: np.ndarray,
    E: np.ndarray,
    ranks: np.ndarray,
    resid: np.ndarray,
) -> int:
    """Copy slice *pos*'s result out and compact the active prefix.

    Swaps the last active slice into position *pos* across every state
    buffer and bookkeeping vector; returns the new active count. Safe
    because per-slice arithmetic is independent of slice position (see the
    module docstring).
    """
    idx = int(slots[pos])
    res.low_rank[idx] = D[pos]
    res.sparse[idx] = E[pos]
    res.rank[idx] = int(ranks[pos])
    res.iterations[idx] = it
    res.converged[idx] = converged
    res.residual[idx] = float(resid[pos])
    last = k - 1
    if pos != last:
        for arr in state:
            arr[pos] = arr[last]
        for vec in vectors + (slots, ranks, resid):
            vec[pos] = vec[last]
    return last


def _apg_batch(
    A0: np.ndarray,
    omega0: np.ndarray | None,
    lam_v: float,
    *,
    tol: float,
    max_iter: int,
    eta: float,
    mu_floor_factor: float,
    warm: tuple[np.ndarray, np.ndarray] | None,
    warm_mu_factor: float,
    ws: BatchedSolveWorkspace,
    predictor: BatchRankPredictor,
    dtype: np.dtype,
    ew: ElementwiseKernel,
) -> _StackResult:
    """Stacked APG loop over one homogeneous group (all-masked or all-unmasked).

    Same recurrence as :func:`repro.core.apg._rpca_apg_fast` — literally the
    same :class:`~repro.core.elementwise.ElementwiseKernel` step methods —
    with per-matrix scalars as ``(B,)`` vectors and convergence dropout via
    swap-compaction. The FISTA momentum scalars ``t``/``β`` depend only on
    the iteration index, so they stay global.
    """
    B, m, n = A0.shape
    masked = omega0 is not None
    p = "f32." if dtype == np.float32 else ""
    res = _StackResult(B, m, n, dtype)

    norm_a = np.empty(B)
    mu_top = np.empty(B)
    for i in range(B):
        norm_a[i] = np.linalg.norm(A0[i])
        mu_top[i] = spectral_norm(A0[i]) if norm_a[i] > 0.0 else 0.0
    order = np.flatnonzero(norm_a > 0.0)
    res.converged[norm_a == 0.0] = True  # ‖A‖=0 ⇒ D=E=0, matches single path
    k = order.size
    if k == 0:
        return res

    if masked:
        names = ("A", "omega", "D", "Dp", "Dn", "E", "Ep", "En",
                 "YD", "YE", "G", "M", "S")
        A, D, Dp, Dn, E, Ep, En, YD, YE, G, M, S = ws.bufs(
            *(p + nm for nm in names if nm != "omega"), dtype=dtype
        )
        omega = ws.buf(p + "omega", dtype=np.bool_)
        state: tuple[np.ndarray, ...] = (A, omega, D, Dp, E, Ep)
    else:
        A, F, Fp, T, MD, ME, Dn, En, S, D, E = ws.bufs(
            *(p + nm for nm in
              ("A", "F", "Fp", "T", "MD", "ME", "Dn", "En", "S", "D", "E")),
            dtype=dtype,
        )
        state = (A, F, Fp, D, E)

    slots = order.astype(np.int64)
    for i, src in enumerate(order):
        A[i] = A0[src]
        if masked:
            omega[i] = omega0[src]
    norm_a_v = norm_a[order].copy()
    mu_bar = mu_floor_factor * 0.99 * mu_top[order]
    if warm is not None:
        D0s, E0s = warm
        for i, src in enumerate(order):
            D[i] = D0s[src]
            E[i] = E0s[src]
            if masked:
                Dp[i] = D0s[src]
                Ep[i] = E0s[src]
            else:
                np.subtract(D[i], E[i], out=F[i])
        if not masked:
            np.copyto(Fp[:k], F[:k])
        mu = np.maximum(mu_bar, warm_mu_factor * mu_top[order])
    else:
        for arr in ((D, Dp, E, Ep) if masked else (D, E, F, Fp)):
            arr[:k] = 0.0
        mu = 0.99 * mu_top[order]

    kernel = BatchedSVTKernel((B, m, n), rank_predictor=predictor, dtype=dtype)

    def svt(Ms: np.ndarray, tau: np.ndarray, out: np.ndarray) -> np.ndarray:
        return kernel.svt(Ms, tau, out, slots=slots[: Ms.shape[0]])

    def norms(X: np.ndarray) -> np.ndarray:
        kk = X.shape[0]
        vals = np.empty(kk)
        return _slice_norms(X, kk, vals)

    t = t_prev = 1.0
    sqrt2 = float(np.sqrt(2.0))
    resid = np.full(B, np.inf)
    ranks = np.zeros(B, dtype=np.int64)
    participating = order.copy()

    for it in range(1, max_iter + 1):
        beta = (t_prev - 1.0) / t
        tau_d = (mu[:k] / 2.0).reshape(k, 1, 1)
        tau_e = (lam_v * mu[:k] / 2.0).reshape(k, 1, 1)
        if masked:
            step_ranks, sd, se = ew.apg_step_masked(
                A[:k], omega[:k], D[:k], Dp[:k], E[:k], Ep[:k],
                YD[:k], YE[:k], G[:k], M[:k], S[:k], Dn[:k], En[:k],
                beta, tau_d, tau_e, svt, norms,
            )
            np.divide(np.sqrt(sd * sd + se * se), norm_a_v[:k], out=resid[:k])
            Dp, D, Dn = D, Dn, Dp
            Ep, E, En = E, En, Ep
            state = (A, omega, D, Dp, E, Ep)
        else:
            step_ranks = ew.apg_step_unmasked(
                A[:k], F[:k], Fp[:k], T[:k], MD[:k], ME[:k],
                Dn[:k], En[:k], S[:k], beta, tau_d, tau_e, svt,
            )
            F, Fp = Fp, F
            vals = _slice_norms(S, k, np.empty(k))
            np.divide(sqrt2 * vals, norm_a_v[:k], out=resid[:k])
            D, Dn = Dn, D
            E, En = En, E
            state = (A, F, Fp, D, E)
        ranks[:k] = step_ranks
        t_prev, t = t, (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        np.maximum(eta * mu[:k], mu_bar[:k], out=mu[:k])
        res.loop_iterations += 1

        done = np.flatnonzero(resid[:k] < tol)
        for pos in done[::-1]:
            k = _retire(
                res, int(pos), k, it, True,
                state, (mu, mu_bar, norm_a_v), slots, D, E, ranks, resid,
            )
        if k == 0:
            break

    for pos in range(k - 1, -1, -1):
        k = _retire(
            res, pos, k, max_iter, False,
            state, (mu, mu_bar, norm_a_v), slots, D, E, ranks, resid,
        )
    _emit_loop_counters(res, participating)
    return res


def _ialm_batch(
    A0: np.ndarray,
    omega0: np.ndarray | None,
    lam_v: float,
    *,
    tol: float,
    max_iter: int,
    rho: float,
    warm: tuple[np.ndarray, np.ndarray] | None,
    warm_mu_steps: float,
    ws: BatchedSolveWorkspace,
    predictor: BatchRankPredictor,
    dtype: np.dtype,
    ew: ElementwiseKernel,
) -> _StackResult:
    """Stacked IALM loop over one homogeneous group; mirrors
    :func:`repro.core.ialm._rpca_ialm_fast` via the shared step methods."""
    B, m, n = A0.shape
    masked = omega0 is not None
    p = "f32." if dtype == np.float32 else ""
    res = _StackResult(B, m, n, dtype)

    norm_a = np.empty(B)
    norm_two = np.empty(B)
    norm_inf = np.empty(B)
    for i in range(B):
        norm_a[i] = np.linalg.norm(A0[i])
        if norm_a[i] > 0.0:
            norm_two[i] = spectral_norm(A0[i])
            norm_inf[i] = float(np.abs(A0[i]).max()) / lam_v
        else:
            norm_two[i] = norm_inf[i] = 0.0
    order = np.flatnonzero(norm_a > 0.0)
    res.converged[norm_a == 0.0] = True
    k = order.size
    if k == 0:
        return res

    base = ("A", "D", "E", "Yinv", "M", "Z")
    if masked:
        A, D, E, Yinv, M, Z, W = ws.bufs(*(p + nm for nm in base + ("W",)),
                                         dtype=dtype)
        omega = ws.buf(p + "omega", dtype=np.bool_)
        state: tuple[np.ndarray, ...] = (A, omega, D, E, Yinv)
    else:
        A, D, E, Yinv, M, Z = ws.bufs(*(p + nm for nm in base), dtype=dtype)
        state = (A, D, E, Yinv)

    slots = order.astype(np.int64)
    for i, src in enumerate(order):
        A[i] = A0[src]
        if masked:
            omega[i] = omega0[src]
    norm_a_v = norm_a[order].copy()
    mu = 1.25 / norm_two[order]
    mu_bar = mu * 1e7
    if warm is not None:
        D0s, E0s = warm
        for i, src in enumerate(order):
            D[i] = D0s[src]
            E[i] = E0s[src]
        mu = np.minimum(mu * rho**warm_mu_steps, mu_bar)
    else:
        D[:k] = 0.0
        E[:k] = 0.0
    # Ȳ₀ = A/(J(A)·μ₀) with the (possibly ramped) μ — see the single path.
    coef = 1.0 / (np.maximum(norm_two[order], norm_inf[order]) * mu)
    np.multiply(A[:k], coef.reshape(k, 1, 1), out=Yinv[:k])

    kernel = BatchedSVTKernel((B, m, n), rank_predictor=predictor, dtype=dtype)

    def svt(Ms: np.ndarray, tau: np.ndarray, out: np.ndarray) -> np.ndarray:
        return kernel.svt(Ms, tau, out, slots=slots[: Ms.shape[0]])

    resid = np.full(B, np.inf)
    ranks = np.zeros(B, dtype=np.int64)
    participating = order.copy()

    for it in range(1, max_iter + 1):
        mu_next = np.minimum(mu[:k] * rho, mu_bar[:k])
        tau_d = (1.0 / mu[:k]).reshape(k, 1, 1)
        tau_e = (lam_v / mu[:k]).reshape(k, 1, 1)
        ratio = (mu[:k] / mu_next).reshape(k, 1, 1)
        if masked:
            step_ranks = ew.ialm_step_masked(
                A[:k], omega[:k], D[:k], E[:k], W[:k], Yinv[:k], M[:k], Z[:k],
                tau_d, tau_e, ratio, svt,
            )
        else:
            step_ranks = ew.ialm_step_unmasked(
                A[:k], D[:k], E[:k], Yinv[:k], M[:k], Z[:k],
                tau_d, tau_e, ratio, svt,
            )
        ranks[:k] = step_ranks
        mu[:k] = mu_next
        vals = _slice_norms(Z, k, np.empty(k))
        np.divide(vals, norm_a_v[:k], out=resid[:k])
        res.loop_iterations += 1

        done = np.flatnonzero(resid[:k] < tol)
        for pos in done[::-1]:
            k = _retire(
                res, int(pos), k, it, True,
                state, (mu, mu_bar, norm_a_v), slots, D, E, ranks, resid,
            )
        if k == 0:
            break

    for pos in range(k - 1, -1, -1):
        k = _retire(
            res, pos, k, max_iter, False,
            state, (mu, mu_bar, norm_a_v), slots, D, E, ranks, resid,
        )
    _emit_loop_counters(res, participating)
    return res


def _solve_group(
    solver: str,
    A0: np.ndarray,
    omega0: np.ndarray | None,
    lam_v: float,
    kwargs: dict[str, Any],
    *,
    ws: BatchedSolveWorkspace,
    predictor: BatchRankPredictor,
    dtype: str,
) -> _StackResult:
    """Run one homogeneous group, with the optional f32-iterate/f64-refine split."""
    ew = ElementwiseKernel()
    if solver == "apg":
        def run(warm, loop_dtype, tol_override=None):
            return _apg_batch(
                A0, omega0, lam_v,
                tol=tol_override if tol_override is not None
                else kwargs.get("tol", 1e-7),
                max_iter=kwargs.get("max_iter", 500),
                eta=kwargs.get("eta", 0.9),
                mu_floor_factor=kwargs.get("mu_floor_factor", 1e-9),
                warm=warm, warm_mu_factor=0.1,
                ws=ws, predictor=predictor, dtype=loop_dtype, ew=ew,
            )
    else:
        def run(warm, loop_dtype, tol_override=None):
            return _ialm_batch(
                A0, omega0, lam_v,
                tol=tol_override if tol_override is not None
                else kwargs.get("tol", 1e-7),
                max_iter=kwargs.get("max_iter", 1000),
                rho=kwargs.get("rho", 1.5),
                warm=warm, warm_mu_steps=8.0,
                ws=ws, predictor=predictor, dtype=loop_dtype, ew=ew,
            )

    if dtype == "float64":
        return run(None, np.float64)
    # float32 iterate phase to a loose tolerance, then one float64
    # refinement pass warm-started from the single-precision split.
    tol = kwargs.get("tol", 1e-7)
    rough = run(None, np.float32, tol_override=max(tol, _F32_TOL))
    observability.emit_count("kernel.batch.refine_passes")
    refined = run(
        (rough.low_rank.astype(np.float64), rough.sparse.astype(np.float64)),
        np.float64,
    )
    refined.iterations += rough.iterations
    return refined


def solve_rpca_batch(
    matrices: Sequence[np.ndarray] | np.ndarray,
    masks: Sequence[np.ndarray | None] | None = None,
    *,
    solver: str = "apg",
    lam: float | None = None,
    dtype: str = "float64",
    workspace: BatchedSolveWorkspace | None = None,
    rank_predictor: BatchRankPredictor | None = None,
    context: str = "batch",
    fallback: bool = True,
    **solver_kwargs: Any,
) -> list[SolverResult]:
    """Solve B same-shape RPCA problems through one stacked iteration loop.

    Parameters
    ----------
    matrices:
        ``(B, m, n)`` array or sequence of B ``(m, n)`` data matrices.
    masks:
        Optional per-matrix observation masks (``None`` entries = fully
        observed). Masked and unmasked matrices are partitioned into two
        homogeneous sub-batches internally; results return in input order.
    solver:
        ``"apg"`` or ``"ialm"`` run batched; any other registered solver
        routes to the per-matrix fallback.
    lam:
        Shared sparsity trade-off λ; defaults to ``1/sqrt(max(m, n))``.
    dtype:
        ``"float64"`` (default — the bit-parity mode) or ``"float32"``
        (single-precision iterate + float64 refinement pass).
    workspace:
        A :class:`BatchedSolveWorkspace` of shape ``(B, m, n)`` to reuse
        across calls; allocated fresh when omitted.
    rank_predictor:
        Shared :class:`~repro.core.kernels.BatchRankPredictor` threaded
        across sweeps; fresh when omitted.
    context:
        Instrumentation span label.
    fallback:
        When the batched path cannot run the request (unsupported solver,
        short side above the gram limit, solver keywords the batched loop
        does not implement), solve each matrix through
        :func:`~repro.core.solvers.solve_rpca` instead (counted as
        ``kernel.batch.fallback``). ``False`` raises instead.
    **solver_kwargs:
        Per-solver iteration controls (``tol``, ``max_iter``, ``eta``,
        ``mu_floor_factor`` for APG; ``tol``, ``max_iter``, ``rho`` for
        IALM). Anything else triggers the fallback.

    Returns
    -------
    list[SolverResult]
        One result per input matrix, in input order, always float64.
    """
    if isinstance(matrices, np.ndarray) and matrices.ndim == 3:
        mats = [
            as_float_matrix(matrices[i], f"matrices[{i}]")
            for i in range(matrices.shape[0])
        ]
    else:
        mats = [as_float_matrix(x, f"matrices[{i}]") for i, x in enumerate(matrices)]
    B = len(mats)
    if B == 0:
        raise ValidationError("matrices must contain at least one matrix")
    shape = mats[0].shape
    for i, x in enumerate(mats):
        if x.shape != shape:
            raise ValidationError(
                f"matrices[{i}] has shape {x.shape}, expected {shape} — "
                "a batch must be shape-homogeneous"
            )
    m, n = shape
    if masks is None:
        omegas: list[np.ndarray | None] = [None] * B
    else:
        if len(masks) != B:
            raise ValidationError(
                f"masks has {len(masks)} entries for {B} matrices"
            )
        omegas = [validate_mask(mk, shape) for mk in masks]
    lam_v = default_lambda(shape) if lam is None else check_positive(lam, "lam")
    validate_batch_dtype(dtype)

    unsupported = set(solver_kwargs) - (
        _APG_BATCH_KWARGS if solver == "apg" else _IALM_BATCH_KWARGS
    )
    needs_fallback = (
        solver not in ("apg", "ialm")
        or min(m, n) > _GRAM_MAX_SIDE
        or bool(unsupported)
    )
    if needs_fallback:
        if not fallback:
            reason = (
                f"solver {solver!r}" if solver not in ("apg", "ialm")
                else f"short side {min(m, n)} > {_GRAM_MAX_SIDE}"
                if min(m, n) > _GRAM_MAX_SIDE
                else f"keyword(s) {sorted(unsupported)}"
            )
            raise ValidationError(f"batched solve cannot run: {reason}")
        observability.emit_count("kernel.batch.fallback", B)
        out: list[SolverResult] = []
        for i in range(B):
            kw = dict(solver_kwargs)
            if omegas[i] is not None:
                kw["mask"] = omegas[i]
            if lam is not None:
                kw["lam"] = lam
            out.append(solve_rpca(mats[i], solver=solver, context=context, **kw))
        return out

    if workspace is None:
        workspace = BatchedSolveWorkspace((B, m, n))
    elif workspace.shape != (B, m, n):
        raise ValidationError(
            f"workspace shape {workspace.shape} does not match batch ({B}, {m}, {n})"
        )
    if rank_predictor is None:
        rank_predictor = BatchRankPredictor(min_dim=min(m, n), batch=B)

    start = time.perf_counter()
    observability.emit_count("kernel.batch.solves")
    observability.emit_count("kernel.batch.matrices", B)

    un_idx = [i for i in range(B) if omegas[i] is None]
    ma_idx = [i for i in range(B) if omegas[i] is not None]
    group_results: dict[int, tuple[_StackResult, int]] = {}
    for idx_list, use_mask in ((un_idx, False), (ma_idx, True)):
        if not idx_list:
            continue
        A0 = np.stack([mats[i] for i in idx_list])
        omega0 = None
        if use_mask:
            omega0 = np.stack([omegas[i] for i in idx_list])
            A0 = np.where(omega0, A0, 0.0)  # placeholders carry no signal
        res = _solve_group(
            solver, A0, omega0, lam_v, solver_kwargs,
            ws=workspace, predictor=rank_predictor, dtype=dtype,
        )
        for gpos, i in enumerate(idx_list):
            group_results[i] = (res, gpos)
    elapsed = time.perf_counter() - start
    observability.emit_time("kernel.batch.solve_seconds", elapsed)

    results: list[SolverResult] = []
    for i in range(B):
        res, gpos = group_results[i]
        sr = SolverResult(
            low_rank=np.array(res.low_rank[gpos], dtype=np.float64),
            sparse=np.array(res.sparse[gpos], dtype=np.float64),
            rank=int(res.rank[gpos]),
            iterations=int(res.iterations[gpos]),
            converged=bool(res.converged[gpos]),
            residual=float(res.residual[gpos]),
        )
        results.append(sr)
        if observability.active():
            observability.emit_span(
                observability.SolveSpan(
                    solver=solver, rows=m, cols=n,
                    iterations=sr.iterations, rank=sr.rank,
                    residual=sr.residual, converged=sr.converged,
                    warm=False, seconds=elapsed / B, context=context,
                )
            )
    return results
