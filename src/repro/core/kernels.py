"""Low-rank-aware SVD kernel layer for the RPCA solvers.

The solvers spend nearly all their time inside singular value thresholding
(SVT) of an ``n_snapshots × N²`` iterate whose effective rank is tiny — the
TC-matrix target is rank one — yet the historical implementation paid a full
LAPACK ``gesdd`` thin SVD every iteration. This module makes the SVD under
:func:`~repro.core.svd_ops.singular_value_threshold` pluggable:

``exact``
    The historical ``gesdd``/``gesvd`` path, bit-identical to
    :func:`~repro.core.svd_ops.singular_value_threshold`. The default.
``gram``
    Exploits the extreme aspect ratio of TP-matrices (``m ≈ 10`` rows vs
    ``n ≈ 38416`` columns): eigendecompose the tiny ``A·Aᵀ`` Gram matrix
    (``m × m``) and reconstruct only the triplets that survive the
    threshold. Exact up to the squared-condition-number loss of forming the
    Gram matrix — singular values below ``σ₁·√ε ≈ σ₁·1.5e-8`` are noise,
    far below any RPCA threshold in practice.
``auto``
    Picks per call: ``gram`` when the short side is small enough that the
    Gram eigendecomposition is trivial (at most 64), ``exact`` otherwise.

Rank prediction follows the partial-SVD heuristic of the reference IALM
implementation (Lin, Chen & Ma 2010): start at ``min(10, m)``, then
grow/shrink from how many singular values survived the previous threshold,
so steady-state iterations need ~``rank+1`` triplets instead of
``min(m, n)``. :class:`RankPredictor` carries that state; the
:class:`~repro.core.engine.DecompositionEngine` threads one predictor
through successive warm-started re-calibrations so the steady-state rank is
remembered across solves (and across processes — the predictor pickles with
the engine's warm state). No SVT backend reads the prediction: ``gram``
computes every singular value and ``exact`` is the full SVD, so the kernel
only observes it. The streaming fold keeps its own predictor to bound its
subspace growth.

:class:`SolveWorkspace` rounds out the layer: a per-solve pool of
preallocated ``m × n`` buffers the solver iterations write into (``out=``
style), so steady-state iterations allocate no new ``m × n`` temporaries.
Every allocation is counted (``kernel.workspace.alloc_mn``), which is how
the no-allocation property is asserted in tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import observability
from ..errors import ValidationError
from .svd_ops import singular_value_threshold

__all__ = [
    "SVD_BACKENDS",
    "RankPredictor",
    "BatchRankPredictor",
    "SVTKernel",
    "BatchedSVTKernel",
    "SolveWorkspace",
    "validate_backend",
]

SVD_BACKENDS = ("exact", "gram", "auto")

# `auto` policy threshold: the Gram trick is preferred whenever the short
# side is small enough that an m×m eigendecomposition is trivially cheap
# (the paper's TP-matrices have m ≈ 10).
_GRAM_MAX_SIDE = 64


def validate_backend(backend: str) -> str:
    """Return *backend* if it names a known SVD backend, else raise."""
    if backend not in SVD_BACKENDS:
        raise ValidationError(
            f"unknown SVD backend {backend!r}; available: {list(SVD_BACKENDS)}"
        )
    return backend


@dataclass
class RankPredictor:
    """Adaptive rank prediction for partial SVT (the ``sv`` heuristic).

    Attributes
    ----------
    min_dim:
        Short side of the matrices being thresholded; the prediction is
        clamped to it.
    sv:
        Current prediction: how many triplets the next partial SVT should
        compute. Starts at ``min(10, min_dim)`` (Lin et al.'s choice).
    growth:
        Fractional headroom added when the previous threshold kept every
        computed triplet (rank still growing).

    The invariant :meth:`observe` maintains — pinned by a property test —
    is that the next prediction always *exceeds* the rank that survived the
    last threshold (unless clamped at ``min_dim``), so a steady-state
    iteration computes ``rank + 1`` triplets: enough to see the first
    singular value that falls below the threshold and thereby prove the
    rank exact.
    """

    min_dim: int
    sv: int = 0
    growth: float = 0.05
    observations: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if int(self.min_dim) < 1:
            raise ValidationError("min_dim must be >= 1")
        self.min_dim = int(self.min_dim)
        if self.sv <= 0:
            self.sv = min(10, self.min_dim)
        self.sv = int(min(self.sv, self.min_dim))

    @classmethod
    def for_shape(cls, shape: tuple[int, int]) -> "RankPredictor":
        """A fresh predictor for matrices of *shape*."""
        return cls(min_dim=min(int(shape[0]), int(shape[1])))

    def predict(self) -> int:
        """Triplets the next partial SVT should compute."""
        return self.sv

    def observe(self, surviving: int) -> None:
        """Update the prediction from how many singular values survived."""
        surviving = int(surviving)
        if surviving < self.sv:
            self.sv = min(surviving + 1, self.min_dim)
        else:
            step = max(1, round(self.growth * self.min_dim))
            self.sv = min(surviving + step, self.min_dim)
        self.observations += 1


@dataclass
class BatchRankPredictor:
    """:class:`RankPredictor` over a batch axis.

    One prediction slot per matrix in a stacked solve. :meth:`observe`
    applies the scalar predictor's update rule elementwise — including its
    no-undershoot invariant (the next prediction exceeds the surviving rank
    unless clamped at ``min_dim``), pinned per-slot by a property test.
    Because the batched solver compacts converged matrices out of its
    stack, observations may arrive for a *subset* of slots: ``slots`` maps
    each observed value back to its original batch position.
    """

    min_dim: int
    batch: int
    growth: float = 0.05
    sv: np.ndarray | None = None
    observations: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if int(self.min_dim) < 1:
            raise ValidationError("min_dim must be >= 1")
        if int(self.batch) < 1:
            raise ValidationError("batch must be >= 1")
        self.min_dim = int(self.min_dim)
        self.batch = int(self.batch)
        if self.sv is None:
            self.sv = np.full(self.batch, min(10, self.min_dim), dtype=np.int64)
        else:
            self.sv = np.minimum(
                np.asarray(self.sv, dtype=np.int64), self.min_dim
            ).copy()
            if self.sv.shape != (self.batch,):
                raise ValidationError(
                    f"sv must have shape ({self.batch},), got {self.sv.shape}"
                )

    @classmethod
    def for_stack(cls, shape: tuple[int, int, int]) -> "BatchRankPredictor":
        """A fresh predictor for a ``(B, m, n)`` stack."""
        b, m, n = (int(s) for s in shape)
        return cls(min_dim=min(m, n), batch=b)

    def predict(self) -> np.ndarray:
        """Per-slot triplet predictions (a copy; mutate via :meth:`observe`)."""
        return self.sv.copy()

    def observe(
        self, surviving: np.ndarray, slots: np.ndarray | None = None
    ) -> None:
        """Update predictions from per-matrix surviving ranks.

        *slots* selects which batch positions the values belong to
        (default: positions ``0..len(surviving)``, the uncompacted case).
        """
        surviving = np.asarray(surviving, dtype=np.int64)
        idx = np.arange(surviving.size) if slots is None else np.asarray(slots)
        sv = self.sv[idx]
        step = max(1, round(self.growth * self.min_dim))
        self.sv[idx] = np.where(
            surviving < sv,
            np.minimum(surviving + 1, self.min_dim),
            np.minimum(surviving + step, self.min_dim),
        )
        self.observations += 1


class SolveWorkspace:
    """Preallocated per-solve ``m × n`` buffers, handed out by name.

    A solver asks for its iteration buffers once, before the loop; every
    subsequent iteration reuses them through ``out=`` ufunc calls. Each
    fresh allocation emits a ``kernel.workspace.alloc_mn`` count into the
    active instrumentation sinks, so "steady-state iterations allocate no
    new m×n temporaries" is a counter assertion, not a code-review claim.
    """

    __slots__ = ("shape", "_bufs")

    def __init__(self, shape: tuple[int, int]) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self._bufs: dict[str, np.ndarray] = {}

    def buf(self, name: str) -> np.ndarray:
        """The buffer registered under *name* (allocated on first use)."""
        arr = self._bufs.get(name)
        if arr is None:
            arr = np.empty(self.shape, dtype=np.float64)
            self._bufs[name] = arr
            observability.emit_count("kernel.workspace.alloc_mn")
        return arr

    def bufs(self, *names: str) -> tuple[np.ndarray, ...]:
        """Several buffers at once, in the order requested."""
        return tuple(self.buf(name) for name in names)

    @property
    def allocated(self) -> int:
        """Number of ``m × n`` buffers allocated so far."""
        return len(self._bufs)


class SVTKernel:
    """Singular value thresholding with a pluggable partial-SVD backend.

    One kernel serves one solve: it owns the small scratch state (the Gram
    buffer) and the :class:`RankPredictor` threading
    through the iterations. :meth:`svt` matches the contract of
    :func:`~repro.core.svd_ops.singular_value_threshold` — ``(D, rank,
    top_sv)`` — plus an optional preallocated output buffer.

    Parameters
    ----------
    shape:
        Shape of the matrices this kernel will threshold.
    backend:
        One of :data:`SVD_BACKENDS`. ``auto`` re-decides per call from the
        current rank prediction.
    rank_predictor:
        Shared predictor state; a fresh one is created if omitted. Pass the
        previous solve's predictor to start warm.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        backend: str = "auto",
        *,
        rank_predictor: RankPredictor | None = None,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.backend = validate_backend(backend)
        self.min_dim = min(self.shape)
        if rank_predictor is None:
            rank_predictor = RankPredictor.for_shape(self.shape)
        elif rank_predictor.min_dim != self.min_dim:
            raise ValidationError(
                f"rank predictor built for min_dim={rank_predictor.min_dim}, "
                f"kernel shape {self.shape} has min_dim={self.min_dim}"
            )
        self.predictor = rank_predictor
        self._gram: np.ndarray | None = None  # min_dim × min_dim scratch

    # -- policy -------------------------------------------------------------
    def choose(self) -> str:
        """The concrete backend the next :meth:`svt` call will use."""
        if self.backend != "auto":
            return self.backend
        return "gram" if self.min_dim <= _GRAM_MAX_SIDE else "exact"

    # -- dispatch -----------------------------------------------------------
    def svt(
        self, a: np.ndarray, tau: float, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, int, float]:
        """``D_tau(a)`` — see :func:`~repro.core.svd_ops.singular_value_threshold`.

        When *out* is given the thresholded matrix is written into it (and
        returned); otherwise a fresh array is allocated.
        """
        backend = self.choose()
        start = time.perf_counter()
        if backend == "exact":
            d, rank, top = self._svt_exact(a, tau, out)
        else:
            d, rank, top = self._svt_gram(a, tau, out)
        elapsed = time.perf_counter() - start
        self.predictor.observe(rank)
        observability.emit_count(f"kernel.svt.{backend}")
        if backend == "exact":
            observability.emit_count("kernel.svt.full_width")
        observability.emit_time("kernel.svt_seconds", elapsed)
        observability.emit_time(f"kernel.svt.{backend}_seconds", elapsed)
        return d, rank, top

    # -- backends -----------------------------------------------------------
    def _svt_exact(
        self, a: np.ndarray, tau: float, out: np.ndarray | None
    ) -> tuple[np.ndarray, int, float]:
        """The historical full-width path (bit-identical to ``svd_ops``)."""
        d, rank, top = singular_value_threshold(a, tau)
        if out is not None:
            np.copyto(out, d)
            return out, rank, top
        return d, rank, top

    def _gram_buf(self) -> np.ndarray:
        if self._gram is None:
            self._gram = np.empty((self.min_dim, self.min_dim), dtype=np.float64)
        return self._gram

    def _svt_gram(
        self, a: np.ndarray, tau: float, out: np.ndarray | None
    ) -> tuple[np.ndarray, int, float]:
        """Eigendecompose the short-side Gram matrix; reconstruct survivors.

        For a wide matrix (``m ≤ n``): ``A·Aᵀ = U·diag(s²)·Uᵀ``, so the
        left singular vectors and singular values come from an ``m × m``
        symmetric eigenproblem and only the ``rank`` surviving right
        vectors ``vᵢᵀ = uᵢᵀA / sᵢ`` are ever formed. Tall matrices use the
        transposed identity. All ``min_dim`` singular values are available,
        so the thresholded rank is exact by construction — no undershoot.
        """
        m, n = a.shape
        wide = m <= n
        gram = self._gram_buf()
        if wide:
            np.matmul(a, a.T, out=gram)
        else:
            np.matmul(a.T, a, out=gram)
        w, vecs = np.linalg.eigh(gram)  # ascending
        s = np.sqrt(np.clip(w[::-1], 0.0, None))
        top = float(s[0]) if s.size else 0.0
        shrunk = s - tau
        rank = int(np.count_nonzero(shrunk > 0.0))
        if out is None:
            out = np.empty_like(np.asarray(a, dtype=np.float64))
        if rank == 0:
            out[:] = 0.0
            return out, 0, top
        basis = vecs[:, ::-1][:, :rank]  # top-`rank` eigenvectors
        if wide:
            # D = (U_k * shrunk) @ (U_kᵀ A / s_k)
            vt = (basis.T @ a) / s[:rank, None]
            np.matmul(basis * shrunk[:rank], vt, out=out)
        else:
            # D = (A V_k / s_k * shrunk) @ V_kᵀ
            u = (a @ basis) / s[:rank]
            np.matmul(u * shrunk[:rank], basis.T, out=out)
        return out, rank, top


class BatchedSVTKernel:
    """Stacked singular value thresholding via short-side Gram eigenproblems.

    The batched counterpart of :class:`SVTKernel`'s ``gram`` backend: one
    batched ``A·Aᵀ`` GEMM over the stack, one stacked ``m × m``
    :func:`numpy.linalg.eigh`, then a cheap per-slice reconstruction of the
    surviving triplets. The per-slice arithmetic mirrors
    :meth:`SVTKernel._svt_gram` operation for operation — batched GEMM and
    stacked ``eigh`` process slices independently — so slice ``b`` of the
    output is bit-identical to the single-matrix gram kernel applied to
    slice ``b``, regardless of what else is in the batch. That invariance
    is what lets the batched solvers drop converged matrices out of the
    stack (and the fleet shard clusters arbitrarily) without perturbing any
    remaining solve; it is pinned by tests/test_core_batch.py.

    Only short sides up to the ``auto`` policy's gram threshold are
    supported — larger problems stay on the per-matrix kernels (the
    batched entry points fall back per matrix rather than construct this).

    Parameters
    ----------
    shape:
        ``(B, m, n)`` of the largest stack this kernel will threshold;
        calls may pass any leading slice of it (the active sub-batch).
    rank_predictor:
        Shared :class:`BatchRankPredictor`; a fresh one is created if
        omitted. The gram path computes all ``min_dim`` singular values, so
        the predictor is observational here (it seeds any later
        per-matrix partial solve warm).
    dtype:
        Element type of the stacks (``float32`` iterate mode uses a
        float32 kernel; the refinement pass a float64 one).
    """

    def __init__(
        self,
        shape: tuple[int, int, int],
        *,
        rank_predictor: BatchRankPredictor | None = None,
        dtype: np.dtype | str = np.float64,
    ) -> None:
        b, m, n = (int(s) for s in shape)
        self.shape = (b, m, n)
        self.min_dim = min(m, n)
        self.wide = m <= n
        if self.min_dim > _GRAM_MAX_SIDE:
            raise ValidationError(
                f"batched SVT is gram-only: short side {self.min_dim} exceeds "
                f"{_GRAM_MAX_SIDE}; use the per-matrix kernels"
            )
        self.dtype = np.dtype(dtype)
        if rank_predictor is None:
            rank_predictor = BatchRankPredictor(min_dim=self.min_dim, batch=b)
        elif rank_predictor.min_dim != self.min_dim:
            raise ValidationError(
                f"rank predictor built for min_dim={rank_predictor.min_dim}, "
                f"kernel stack {self.shape} has min_dim={self.min_dim}"
            )
        self.predictor = rank_predictor
        self._gram: np.ndarray | None = None  # (B, min_dim, min_dim) scratch

    def _gram_buf(self) -> np.ndarray:
        if self._gram is None:
            self._gram = np.empty(
                (self.shape[0], self.min_dim, self.min_dim), dtype=self.dtype
            )
        return self._gram

    def svt(
        self,
        a: np.ndarray,
        tau: float | np.ndarray,
        out: np.ndarray,
        slots: np.ndarray | None = None,
    ) -> np.ndarray:
        """Threshold every slice of ``a`` into *out*; returns per-slice ranks.

        *a*/*out* are ``(k, m, n)`` with ``k ≤ B`` (the active sub-batch);
        *tau* is a scalar or a ``(k, 1, 1)`` per-matrix threshold; *slots*
        maps active positions to original batch slots for the predictor.
        """
        k = a.shape[0]
        start = time.perf_counter()
        gram = self._gram_buf()[:k]
        if self.wide:
            np.matmul(a, a.transpose(0, 2, 1), out=gram)
        else:
            np.matmul(a.transpose(0, 2, 1), a, out=gram)
        w, vecs = np.linalg.eigh(gram)  # ascending, per slice
        taus = np.ravel(tau)
        ranks = np.empty(k, dtype=np.int64)
        for i in range(k):
            tau_i = float(taus[i]) if taus.size > 1 else float(taus[0])
            s = np.sqrt(np.clip(w[i, ::-1], 0.0, None))
            shrunk = s - tau_i
            rank = int(np.count_nonzero(shrunk > 0.0))
            ranks[i] = rank
            if rank == 0:
                out[i] = 0.0
                continue
            basis = vecs[i][:, ::-1][:, :rank]  # top-`rank` eigenvectors
            if self.wide:
                # D = (U_k * shrunk) @ (U_kᵀ A / s_k)
                vt = (basis.T @ a[i]) / s[:rank, None]
                np.matmul(basis * shrunk[:rank], vt, out=out[i])
            else:
                # D = (A V_k / s_k * shrunk) @ V_kᵀ
                u = (a[i] @ basis) / s[:rank]
                np.matmul(u * shrunk[:rank], basis.T, out=out[i])
        elapsed = time.perf_counter() - start
        self.predictor.observe(ranks, slots=slots)
        observability.emit_count("kernel.batch.svt.gram")
        observability.emit_count("kernel.batch.svt.slices", k)
        observability.emit_time("kernel.batch.svt_seconds", elapsed)
        return ranks
