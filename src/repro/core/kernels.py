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
    buffer). :meth:`svt` matches the contract of
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
            d, rank, top = singular_value_threshold(a, tau)
            if out is not None:
                np.copyto(out, d)
                d = out
            observability.emit_count("kernel.svt.full_width")
        else:
            d, rank, top = self._svt_gram(a, tau, out)
        observability.emit_count(f"kernel.svt.{backend}")
        elapsed = time.perf_counter() - start
        observability.emit_time("kernel.svt_seconds", elapsed)
        observability.emit_time(f"kernel.svt.{backend}_seconds", elapsed)
        return d, rank, top

    # -- gram backend -------------------------------------------------------
    def _svt_gram(
        self, a: np.ndarray, tau: float, out: np.ndarray | None
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
        if self._gram is None:
            self._gram = np.empty((self.min_dim, self.min_dim), dtype=np.float64)
        gram = self._gram
        tall = m > n
        if tall:
            np.matmul(a.T, a, out=gram)
        else:
            np.matmul(a, a.T, out=gram)
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
        op = (basis * (shrunk[:rank] / s[:rank])) @ basis.T
        if tall:
            np.matmul(a, op, out=out)
        else:
            np.matmul(op, a, out=out)
        return out, rank, top
