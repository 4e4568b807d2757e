"""Low-rank-aware SVD kernel layer for the RPCA solvers.

The solvers spend nearly all their time inside singular value thresholding
(SVT) of an ``n_snapshots × N²`` iterate whose effective rank is tiny — the
TC-matrix target is rank one. Each solver has one iteration loop, and
:class:`SVTKernel` chooses the SVD under its thresholding from the shape:

``gram``
    Exploits the extreme aspect ratio of TP-matrices (``m ≈ 10`` rows vs
    ``n ≈ 38416`` columns): eigendecompose the tiny ``A·Aᵀ`` Gram matrix
    (``m × m``) and rebuild the thresholded matrix with one GEMM through
    the ``m × m`` shrink operator of the triplets that survive the
    threshold. Exact up to the squared-condition-number loss of forming the
    Gram matrix — singular values below ``σ₁·√ε ≈ σ₁·1.5e-8`` are noise,
    far below any RPCA threshold in practice. Chosen when the short side is
    at most 64.
``exact``
    The full ``gesdd``/``gesvd`` thin SVD,
    :func:`~repro.core.svd_ops.singular_value_threshold`. Chosen otherwise.

``auto`` (the default) is that shape rule. The solvers' ``svd_backend``
keyword forces one kernel instead — for a test, or a bitwise comparison
with a ``gram`` solve; it never selects a different loop.

:class:`RankPredictor` is the partial-SVD rank heuristic of the reference
IALM implementation (Lin, Chen & Ma 2010): start at ``min(10, m)``, then
grow/shrink from how many singular values survived the previous threshold.
No SVT kernel needs it — ``gram`` computes every singular value and
``exact`` is the full SVD — so only the streaming fold uses it, to bound
its subspace growth.

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
    "SVTKernel",
    "SolveWorkspace",
    "validate_backend",
]

SVD_BACKENDS = ("exact", "gram", "auto")

# `auto` policy threshold: the Gram kernel is chosen whenever the short
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
    """Singular value thresholding through a kernel chosen from the shape.

    One kernel serves one solve: it owns the small scratch state (the Gram
    buffer and the last call's shrink operator). :meth:`svt`
    matches the contract of
    :func:`~repro.core.svd_ops.singular_value_threshold` — ``(D, rank,
    top_sv)`` — plus an optional preallocated output buffer.

    Parameters
    ----------
    shape:
        Shape of the matrices this kernel will threshold.
    backend:
        One of :data:`SVD_BACKENDS`. ``auto`` picks ``gram`` when the short
        side is at most 64, ``exact`` otherwise.
    """

    def __init__(self, shape: tuple[int, int], backend: str = "auto") -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.backend = validate_backend(backend)
        self.min_dim = min(self.shape)
        self._gram: np.ndarray | None = None  # min_dim × min_dim scratch
        # What the last svt call thresholded with: the gram shrink operator
        # (None at rank 0), or the exact path's dense result.
        self._op: np.ndarray | None = None
        self._dense: np.ndarray | None = None
        self._right = False  # whether _op came from the column Gram aᵀ·a

    # -- policy -------------------------------------------------------------
    def choose(self) -> str:
        """The concrete backend the next :meth:`svt` call will use."""
        if self.backend != "auto":
            return self.backend
        return "gram" if self.min_dim <= _GRAM_MAX_SIDE else "exact"

    # -- dispatch -----------------------------------------------------------
    def svt(
        self,
        a: np.ndarray,
        tau: float,
        out: np.ndarray | None = None,
        *,
        plus_input: bool = False,
    ) -> tuple[np.ndarray, int, float]:
        """``D_tau(a)`` — see :func:`~repro.core.svd_ops.singular_value_threshold`.

        When *out* is given the thresholded matrix is written into it (and
        returned); otherwise a fresh array is allocated. With *plus_input*
        the result is ``D_tau(a) + a`` instead — the unmasked APG loop's
        carrier update — which the ``gram`` backend forms in the same single
        GEMM through its shrink operator plus the identity.
        """
        backend = self.choose()
        start = time.perf_counter()
        if backend == "exact":
            d, rank, top = self._svt_exact(a, tau, out, plus_input)
        else:
            d, rank, top = self._svt_gram(a, tau, out, plus_input)
        observability.emit_count(f"kernel.svt.{backend}")
        if backend == "exact":
            observability.emit_count("kernel.svt.full_width")
        self.charge(time.perf_counter() - start)
        return d, rank, top

    def shrink_operator(
        self, gram: np.ndarray, tau: float
    ) -> tuple[np.ndarray | None, int, float]:
        """``(P + I, rank, top_sv)`` of the ``a`` whose column Gram is *gram*.

        The ``gram`` kernel split in two, for a caller that forms the Gram
        matrix ``aᵀ·a`` of a tall *a* and applies the operator itself (the
        unmasked APG loop does both per row range): ``D_tau(a) + a`` is
        then ``a·(P + I)``. ``None`` instead of ``P + I`` at rank 0, where
        ``D_tau(a) + a = a``. :meth:`low_rank` rebuilds ``D_tau(a)`` from
        ``P`` afterwards, as after :meth:`svt`. Counts one
        ``kernel.svt.gram`` call; the caller charges the time it spends
        applying the operator with :meth:`charge`.
        """
        start = time.perf_counter()
        op, rank, top = self._shrink_op(gram, tau)
        self._dense, self._right = None, True
        plus = None
        if op is not None:
            plus = op.copy()
            plus.flat[:: plus.shape[0] + 1] += 1.0
        observability.emit_count("kernel.svt.gram")
        self.charge(time.perf_counter() - start)
        return plus, rank, top

    def charge(self, seconds: float) -> None:
        """Add *seconds* of thresholding work to the kernel timers."""
        observability.emit_time("kernel.svt_seconds", seconds)
        observability.emit_time(f"kernel.svt.{self.choose()}_seconds", seconds)

    def low_rank(self, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``D_tau(a)`` of the matrix the last :meth:`svt` call thresholded.

        Rebuilt without a new decomposition: one GEMM through the stored
        shrink operator (``gram``), or a copy of the retained result
        (``exact``). *a* must be that same matrix, unchanged.
        """
        start = time.perf_counter()
        if self._dense is not None:
            np.copyto(out, self._dense)
        elif self._op is None:
            out[:] = 0.0
        else:
            self._apply(self._op, a, out)
        observability.emit_time("kernel.svt_seconds", time.perf_counter() - start)
        return out

    # -- backends -----------------------------------------------------------
    def _svt_exact(
        self, a: np.ndarray, tau: float, out: np.ndarray | None, plus_input: bool
    ) -> tuple[np.ndarray, int, float]:
        """The full-width SVD (bit-identical to ``svd_ops``)."""
        d, rank, top = singular_value_threshold(a, tau)
        self._op, self._dense = None, d
        if plus_input:
            return np.add(d, a, out=out), rank, top
        if out is not None:
            np.copyto(out, d)
            return out, rank, top
        return d, rank, top

    def _gram_buf(self) -> np.ndarray:
        if self._gram is None:
            self._gram = np.empty((self.min_dim, self.min_dim), dtype=np.float64)
        return self._gram

    def _apply(self, op: np.ndarray, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``op·a`` after a row Gram, ``a·op`` after a column Gram: one GEMM."""
        if self._right:
            return np.matmul(a, op, out=out)
        return np.matmul(op, a, out=out)

    def _svt_gram(
        self, a: np.ndarray, tau: float, out: np.ndarray | None, plus_input: bool
    ) -> tuple[np.ndarray, int, float]:
        """Eigendecompose the short-side Gram matrix; shrink through it.

        For a wide matrix (``m ≤ n``): ``A·Aᵀ = U·diag(s²)·Uᵀ``, and the
        thresholded matrix is ``D = P·A`` with the ``m × m`` shrink operator
        ``P = U_k·diag((s_k − τ)/s_k)·U_kᵀ`` over the ``rank`` surviving
        triplets — one GEMM over ``A``, no singular vectors of length
        ``n``. Tall matrices use the transposed identity ``D = A·Q``. All
        ``min_dim`` singular values are available, so the thresholded rank
        is exact by construction — no undershoot.
        """
        m, n = a.shape
        gram = self._gram_buf()
        self._right = m > n
        if self._right:
            np.matmul(a.T, a, out=gram)
        else:
            np.matmul(a, a.T, out=gram)
        op, rank, top = self._shrink_op(gram, tau)
        self._dense = None
        if out is None:
            out = np.empty_like(np.asarray(a, dtype=np.float64))
        if op is None:
            if plus_input:
                np.copyto(out, a)
            else:
                out[:] = 0.0
            return out, 0, top
        if plus_input:
            op = op.copy()
            op.flat[:: op.shape[0] + 1] += 1.0
        self._apply(op, a, out)
        return out, rank, top

    def _shrink_op(
        self, gram: np.ndarray, tau: float
    ) -> tuple[np.ndarray | None, int, float]:
        """Eigendecompose *gram*; store and return the shrink operator ``P``
        (``None`` at rank 0) with the rank and ``σ₁``."""
        w, vecs = np.linalg.eigh(gram)  # ascending
        s = np.sqrt(np.clip(w[::-1], 0.0, None))
        top = float(s[0]) if s.size else 0.0
        shrunk = s - tau
        rank = int(np.count_nonzero(shrunk > 0.0))
        if rank == 0:
            self._op = None
            return None, 0, top
        basis = vecs[:, ::-1][:, :rank]  # top-`rank` eigenvectors
        self._op = (basis * (shrunk[:rank] / s[:rank])) @ basis.T
        return self._op, rank, top
