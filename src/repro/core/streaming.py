"""Online/streaming RPCA: fold one snapshot into the decomposition in O(row).

Algorithm 1 re-solves a full ``time_step × N²`` window on every
re-calibration, but a service ingesting live calibration data sees exactly
one new snapshot per operation: the window slides by a single row. The
:class:`StreamingDecomposer` exploits that — it keeps the current low-rank
component factored as ``L = coeffs · basis`` (``basis``: ``r × N²``
orthonormal rows, ``coeffs``: ``time_step × r``) and folds each arriving
snapshot with work linear in the row:

1. **Robust projection** — alternate a least-squares projection of the new
   row onto ``basis`` with MAD-scaled soft-thresholding of the residual, so
   transient interference lands in the sparse term instead of polluting the
   subspace (the streaming analogue of RPCA's ``D`` / ``E`` split).
2. **Rank-1 subspace update** — when the *unexplained* residual (neither in
   the subspace nor absorbed as sparse) is large, the normalized residual is
   appended as a new basis direction. Growth is bounded by the kernel
   layer's :class:`~repro.core.kernels.RankPredictor`: exceeding its
   predicted rank means the subspace itself has moved, which is a batch
   solver's job — the fold reports a ``"rank"`` fallback instead.
3. **Sliding window** — the oldest row's coefficients drop off; per-row
   unexplained residuals slide along with them and their mean is the
   **drift** of the streaming model. Drift past the configured tolerance
   reports a ``"drift"`` fallback. A row's sparse part decides its
   residual and is then dropped: nothing downstream of the fold reads
   ``S``, only ``P_D``, which the low-rank factors carry.
4. **Periodic re-orthonormalization** — every ``refresh_every`` folds the
   factorization is re-orthonormalized without forming the ``time_step ×
   N²`` reconstruction: a thin QR of ``basisᵀ`` (``N² × r``) and an SVD of
   the ``time_step × r`` product ``coeffs · Rᵀ``. Rank-1 growth directions
   are merged or shrunk away, and the rank predictor observes the
   surviving rank.

A fold allocates only O(row) temporaries, and the in-service result
carries the constant row ``mean(coeffs) · basis`` (O(r · N²)); the
reconstruction ``coeffs · basis`` is formed only if a caller reads
:attr:`StreamResult.low_rank`.

The streaming path is an *approximation in service*, never an oracle: the
engine seeds it from a **cold** batch solve, and any fallback (rank growth,
drift, masked row, regime shift upstream) routes back to another cold batch
solve — bit-identical to :func:`~repro.core.decompose.decompose` on the
same window, which is what "certified fallback" means. A fold's in-service
result is deliberately *not* a :class:`~repro.core.result.SolverResult`:
:func:`~repro.core.decompose.decomposition_from_result` therefore stores
``solver_result=None``, and nothing that needs a batch solve's result (a
stream seed, a served trace wrap) can take a fold's for one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import ValidationError
from ..observability import emit_count
from .elementwise import ElementwiseKernel
from .kernels import RankPredictor

__all__ = [
    "ENGINE_MODES",
    "StreamingConfig",
    "StreamResult",
    "StreamSeed",
    "StreamState",
    "StreamingDecomposer",
    "stream_state_from_payload",
    "stream_state_to_payload",
    "validate_mode",
]

ENGINE_MODES = ("batch", "streaming")

# Guard against division by an all-zero snapshot row; weight rows are
# strictly positive off-diagonal in practice.
_TINY = 1e-300

# MAD → σ for Gaussian noise; ×3 puts the shrinkage threshold at the
# conventional 3σ outlier boundary.
_MAD_SIGMA = 1.4826
_TAU_SIGMAS = 3.0

# Singular values below this fraction of σ₁ are dropped when a batch solve
# seeds the stream. IALM stops on feasibility, so its D keeps singular
# values at 1e-5 to 1e-7 of σ₁ that carry no structure: seeded with them, a
# paper-scale stream ran at rank 3-4, every fold turned P_D slightly and the
# serving path's certified FNF trees had to be rebuilt ~30x as often. 1e-3
# sits below the 5.3e-3 by which two convergent RPCA solvers (IALM and the
# retired APG) disagree on the same program, so it drops nothing either
# could pin down. What it drops is charged to the seed's per-row residuals,
# so the drift certificate sees it.
_SEED_RTOL = 1e-3
# Singular values below this fraction of σ₁ are dropped at refresh — far
# below any structure RPCA could certify, so the truncation is lossless for
# every consumer of the reconstruction.
_REFRESH_RTOL = 1e-9


def validate_mode(mode: str) -> str:
    """Return *mode* if it names a known engine mode, else raise."""
    if mode not in ENGINE_MODES:
        raise ValidationError(
            f"unknown engine mode {mode!r}; available: {list(ENGINE_MODES)}"
        )
    return mode


@dataclass(frozen=True)
class StreamingConfig:
    """Constants of the streaming path.

    No session, fleet or CLI setting reaches them: a
    :class:`~repro.core.engine.DecompositionEngine` builds its decomposer
    from its ``stream_config`` attribute, a plain ``StreamingConfig()``.

    Attributes
    ----------
    tolerance:
        Drift ceiling: when the window-mean relative L1 unexplained
        residual of the streaming model exceeds it, the next fold reports a
        ``"drift"`` fallback and the engine re-solves cold.
    refresh_every:
        Re-orthonormalization cadence in folds.
    passes:
        Projection/shrinkage alternations per fold (2 is enough for the
        near-rank-one subspaces TP-matrices have).
    growth_tol:
        Relative unexplained residual of a *single* row above which a
        rank-1 subspace expansion is attempted.
    """

    tolerance: float = 0.25
    refresh_every: int = 16
    passes: int = 2
    growth_tol: float = 0.1

    def __post_init__(self) -> None:
        if not self.tolerance > 0.0:
            raise ValidationError("stream tolerance must be > 0")
        if int(self.refresh_every) < 1:
            raise ValidationError("stream refresh_every must be >= 1")
        if int(self.passes) < 1:
            raise ValidationError("passes must be >= 1")
        if not self.growth_tol >= 0.0:
            raise ValidationError("growth_tol must be >= 0")
        object.__setattr__(self, "refresh_every", int(self.refresh_every))
        object.__setattr__(self, "passes", int(self.passes))


@dataclass(frozen=True, init=False)
class StreamResult:
    """Duck-typed solver result of one streaming fold.

    Field-compatible with :class:`~repro.core.result.SolverResult` but
    deliberately a distinct type:
    :func:`~repro.core.decompose.decomposition_from_result` stores
    ``solver_result=None`` for anything that is not a real
    :class:`~repro.core.result.SolverResult`, so a streaming decomposition
    can never stand in for a batch solve.

    Built either from an explicit ``low_rank`` or from the factors
    ``coeffs`` (``m × r``) and ``basis`` (``r × n``); in the second case
    :attr:`low_rank` is their product, formed on first read. It carries no
    sparse component: a fold does not keep one.
    """

    rank: int
    iterations: int
    converged: bool
    residual: float
    constant_row: np.ndarray | None = None

    def __init__(
        self,
        *,
        rank: int,
        iterations: int,
        converged: bool,
        residual: float,
        low_rank: np.ndarray | None = None,
        coeffs: np.ndarray | None = None,
        basis: np.ndarray | None = None,
        constant_row: np.ndarray | None = None,
    ) -> None:
        if low_rank is None and (coeffs is None or basis is None):
            raise ValidationError("StreamResult needs low_rank or coeffs and basis")
        for name, value in (
            ("rank", rank),
            ("iterations", iterations),
            ("converged", converged),
            ("residual", residual),
            ("constant_row", constant_row),
            ("_low_rank", low_rank),
            ("_factors", (coeffs, basis)),
        ):
            object.__setattr__(self, name, value)

    @property
    def low_rank(self) -> np.ndarray:
        """The low-rank component ``L`` (``coeffs · basis`` on first read)."""
        if self._low_rank is None:
            coeffs, basis = self._factors
            object.__setattr__(self, "_low_rank", coeffs @ basis)
        return self._low_rank


@dataclass(frozen=True)
class StreamSeed:
    """Streaming state as seeded from one batch solve, before any fold.

    ``basis`` (``r × n``) and ``coeffs`` (``m × r``) factor the low-rank
    part and ``row_err`` is the per-row unexplained residual. The arrays
    are made read-only: a fold replaces the state's arrays instead of
    writing into them, so a seed kept beside a solve result reseeds any
    later state for that window.
    """

    basis: np.ndarray
    coeffs: np.ndarray
    row_err: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.basis, self.coeffs, self.row_err):
            arr.setflags(write=False)

    @property
    def rank(self) -> int:
        return int(self.basis.shape[0])


class StreamState:
    """Picklable subspace state of a :class:`StreamingDecomposer`.

    Plain float64 numpy arrays plus scalars, so the state round-trips
    bit-identically through the checkpoint array channel and ``pickle``.
    The window's snapshot keys are ``range(end - m, end)``: the engine
    folds only one-row slides. States pickled or checkpointed with a
    ``sparse`` window or ``keys`` still load; those are ignored.
    """

    def __init__(
        self,
        basis: np.ndarray,  # (r, n) orthonormal rows
        coeffs: np.ndarray,  # (m, r)
        row_err: np.ndarray,  # (m,) relative L1 unexplained residual per row
        end: int,  # window is [end - m, end)
        updates: int = 0,  # folds since seed (drives the refresh cadence)
        predictor: RankPredictor | None = None,
    ) -> None:
        self.basis = basis
        self.coeffs = coeffs
        self.row_err = row_err
        self.end = end
        self.updates = updates
        if predictor is None:
            predictor = RankPredictor(min_dim=1)
        self.predictor = predictor

    def slide(self, coeffs: np.ndarray, key: int, rel: float) -> None:
        """Drop the window's oldest row and append snapshot *key*'s."""
        self.coeffs = np.vstack([self.coeffs[1:], coeffs[None, :]])
        self.row_err = np.append(self.row_err[1:], rel)
        self.end = int(key) + 1

    def __getstate__(self) -> dict[str, Any]:
        return {
            "basis": self.basis,
            "coeffs": self.coeffs,
            "row_err": self.row_err,
            "end": self.end,
            "updates": self.updates,
            "predictor": self.predictor,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        # Also the field dict of states pickled when this was a dataclass,
        # or with the retired sparse window and key list.
        state = {k: v for k, v in state.items() if k not in ("sparse", "keys")}
        self.__init__(**state)  # type: ignore[misc]

    @property
    def rank(self) -> int:
        return int(self.basis.shape[0])

    @property
    def window_shape(self) -> tuple[int, int]:
        """``(m, n)`` of the window the state covers."""
        return int(self.coeffs.shape[0]), int(self.basis.shape[1])

    @property
    def drift(self) -> float:
        """Window-mean relative unexplained residual of the model."""
        return float(self.row_err.mean())


def _rel_l1(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.abs(x).sum() / max(np.abs(ref).sum(), _TINY))


def _median(x: np.ndarray) -> float:
    """``np.median`` of a finite 1-D array, bit for bit, with one selection.

    ``np.median`` partitions around two order statistics for even sizes
    (plus the last element, to detect NaN). Here one ``np.partition``
    around ``h = n // 2`` places the upper middle at ``h`` and everything
    not above it before ``h``, so the lower middle is the maximum of that
    prefix. ``np.median`` averages as ``(0.0 + lo + hi) / 2`` (its
    ``mean`` sums from the additive identity), which also fixes the sign
    of a zero median; the same expression reproduces it. Finite input
    only: a NaN is not propagated as ``np.median`` would.
    """
    h = x.size // 2
    part = np.partition(x, h)
    if x.size % 2:
        return 0.0 + float(part[h])
    return (0.0 + float(part[:h].max()) + float(part[h])) / 2.0


def _robust_tau(resid: np.ndarray) -> float:
    """MAD-scaled shrinkage threshold: 3σ̂ of the residual's noise floor."""
    med = _median(resid)
    mad = _median(np.abs(resid - med))
    return _TAU_SIGMAS * _MAD_SIGMA * mad


class StreamingDecomposer:
    """Rank-1 incremental RPCA over a sliding snapshot window.

    Owns the :class:`StreamState` between folds. One decomposer serves one
    window shape; the engine reseeds it from every batch solve and drops
    its state on any fallback.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        config: StreamingConfig | None = None,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.config = config if config is not None else StreamingConfig()
        # Per-fold shrinkage reuses the elementwise kernel's scratch row
        # (safe: the fold reads the shrunk row and keeps none of it).
        self._ew = ElementwiseKernel()
        self.state: StreamState | None = None

    # -- seeding -----------------------------------------------------------
    def seed(
        self,
        *,
        end: int,
        data: np.ndarray,
        low_rank: np.ndarray,
        sparse: np.ndarray,
    ) -> StreamState:
        """(Re)initialize streaming state from a batch solve of ``data``.

        ``low_rank``/``sparse`` are the solver's ``D``/``E`` for the window
        ``[end - m, end)`` whose rows are ``data``. Same as
        :meth:`reseed` with :meth:`prepare_seed` of the solve.
        """
        return self.reseed(end, self.prepare_seed(data, low_rank, sparse))

    def prepare_seed(
        self, data: np.ndarray, low_rank: np.ndarray, sparse: np.ndarray
    ) -> StreamSeed:
        """What seeding computes from a batch solve, for :meth:`reseed`.

        A thin SVD of the ``m × n`` ``low_rank`` (``m ≈ 10`` rows) and the
        per-row residuals, which read ``sparse`` but do not keep it: cheap
        next to the solve, but not free, so a caller serving the same solve
        again keeps the seed and calls :meth:`reseed` with it.
        """
        m, n = self.shape
        if data.shape != (m, n):
            raise ValidationError(
                f"seed window shape {data.shape} != decomposer shape {self.shape}"
            )
        u, s, vt = np.linalg.svd(np.asarray(low_rank, dtype=np.float64),
                                 full_matrices=False)
        if s.size and s[0] > 0.0:
            r = max(1, int((s > s[0] * _SEED_RTOL).sum()))
        else:
            r = 1
        coeffs = u[:, :r] * s[:r]
        basis = vt[:r]
        # Against the truncated model the stream serves, not the solver's D.
        unexplained = data - coeffs @ basis - np.asarray(sparse, dtype=np.float64)
        row_err = np.array(
            [_rel_l1(unexplained[i], data[i]) for i in range(m)]
        )
        return StreamSeed(
            basis=basis.copy(),
            coeffs=coeffs,
            row_err=row_err,
        )

    def reseed(self, end: int, seed: StreamSeed) -> StreamState:
        """(Re)initialize streaming state for the window ``[end - m, end)``
        from a :class:`StreamSeed` of a batch solve of that window.

        The state starts on the seed's arrays, not copies: folds replace
        them (copy-on-fold), so one seed can start any number of states.
        """
        predictor = RankPredictor.for_shape(self.shape)
        predictor.observe(seed.rank)
        self.state = StreamState(
            basis=seed.basis,
            coeffs=seed.coeffs,
            row_err=seed.row_err,
            end=int(end),
            updates=0,
            predictor=predictor,
        )
        emit_count("kernel.stream.reseeds")
        return self.state

    # -- persistence -------------------------------------------------------
    def export_state(self) -> StreamState | None:
        """Current state (None when unseeded); arrays are shared, not copied."""
        return self.state

    def import_state(self, state: StreamState | None) -> None:
        """Adopt a state captured by :meth:`export_state` (possibly after a
        checkpoint round-trip); subsequent folds are bit-identical to the
        exporting decomposer's."""
        if state is None:
            self.state = None
            return
        if state.basis.shape[1] != self.shape[1] or (
            state.coeffs.shape[0] != self.shape[0]
        ):
            raise ValidationError(
                f"stream state for window {state.window_shape} does not fit "
                f"decomposer shape {self.shape}"
            )
        self.state = StreamState(
            basis=np.asarray(state.basis, dtype=np.float64),
            coeffs=np.asarray(state.coeffs, dtype=np.float64),
            row_err=np.asarray(state.row_err, dtype=np.float64),
            end=state.end,
            updates=state.updates,
            predictor=state.predictor,
        )

    # -- folding -----------------------------------------------------------
    def fold(self, key: int, row: np.ndarray) -> str | None:
        """Fold snapshot *key* (= window end ``key + 1``) into the model.

        Returns ``None`` on success — the state now covers the slid window
        — or a fallback reason (``"rank"`` / ``"drift"``) with the state
        cleared, in which case the caller must batch-solve and reseed.
        """
        st = self.state
        if st is None:
            raise ValidationError("streaming state not seeded; calibrate first")
        cfg = self.config
        y = np.asarray(row, dtype=np.float64)
        if not np.isfinite(y).all():
            raise ValidationError(f"snapshot {key} row contains non-finite entries")

        v, s_row, resid = self._project(y, st.basis, cfg.passes)
        unexplained = resid - s_row
        rel = _rel_l1(unexplained, y)
        if rel > cfg.growth_tol:
            if st.rank + 1 > st.predictor.predict():
                # The subspace itself has moved past the predicted rank —
                # structural change, the batch oracle's job.
                self.state = None
                return "rank"
            q = unexplained - (unexplained @ st.basis.T) @ st.basis
            nq = float(np.linalg.norm(q))
            if nq > _TINY:
                st.basis = np.vstack([st.basis, q / nq])
                st.coeffs = np.hstack(
                    [st.coeffs, np.zeros((st.coeffs.shape[0], 1))]
                )
                emit_count("kernel.stream.rank_growths")
                v, s_row, resid = self._project(y, st.basis, 1)
                rel = _rel_l1(resid - s_row, y)

        st.slide(v, key, rel)
        st.updates += 1
        if st.updates % cfg.refresh_every == 0:
            self._refresh(st)
        if st.drift > cfg.tolerance:
            self.state = None
            return "drift"
        return None

    def _project(
        self, y: np.ndarray, basis: np.ndarray, passes: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Alternate subspace projection and robust shrinkage for one row."""
        s_row = np.zeros_like(y)
        v = resid = y  # placeholders; passes >= 1 always overwrites
        for _ in range(passes):
            v = (y - s_row) @ basis.T
            resid = y - v @ basis
            s_row = self._ew.shrink(resid, _robust_tau(resid))
        return v, s_row, resid

    def _refresh(self, st: StreamState) -> None:
        """Re-orthonormalize the factorization; shrink merged-away rank.

        With ``basisᵀ = QR`` the reconstruction is ``coeffs · Rᵀ · Qᵀ``, so
        the SVD ``coeffs · Rᵀ = U Σ Wᵀ`` (``m × r``) gives its singular
        values and right singular vectors ``Wᵀ Qᵀ`` without forming the
        ``m × N²`` product. Exact up to rounding and to dropping singular
        values below ``1e-9 σ₁``; per-row residuals keep their fold-time
        values (the truncation is orders of magnitude below the drift
        tolerance).
        """
        q, r_factor = np.linalg.qr(st.basis.T)
        u, s, wt = np.linalg.svd(st.coeffs @ r_factor.T, full_matrices=False)
        if s.size and s[0] > 0.0:
            r = max(1, int((s > s[0] * _REFRESH_RTOL).sum()))
        else:
            r = 1
        st.basis = wt[:r] @ q.T
        st.coeffs = u[:, :r] * s[:r]
        st.predictor.observe(r)
        emit_count("kernel.stream.refreshes")

    # -- in-service result -------------------------------------------------
    def as_result(self, extraction: str = "mean") -> StreamResult:
        """The current model as a duck-typed solver result.

        It shares the state's factor arrays, which later folds replace
        rather than modify. For the ``"mean"`` extraction it carries the
        constant row ``mean(coeffs) · basis`` — the column mean of the
        reconstruction in O(r · N²), equal to it up to rounding; other
        extractions read :attr:`StreamResult.low_rank`, which forms the
        reconstruction.
        """
        st = self.state
        if st is None:
            raise ValidationError("streaming state not seeded; calibrate first")
        row = st.coeffs.mean(axis=0) @ st.basis if extraction == "mean" else None
        return StreamResult(
            coeffs=st.coeffs,
            basis=st.basis,
            rank=st.rank,
            iterations=self.config.passes,
            converged=True,
            residual=st.drift,
            constant_row=row,
        )


def stream_state_to_payload(
    state: StreamState,
) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """Split a :class:`StreamState` into checkpoint arrays + JSON metadata.

    Float64 arrays travel the (bit-exact) array channel; scalars and the
    rank-predictor state travel the JSON channel. Inverse:
    :func:`stream_state_from_payload`.
    """
    arrays = {
        "stream_basis": state.basis,
        "stream_coeffs": state.coeffs,
        "stream_row_err": state.row_err,
    }
    meta = {
        "end": int(state.end),
        "updates": int(state.updates),
        "predictor": {
            "min_dim": int(state.predictor.min_dim),
            "sv": int(state.predictor.sv),
            "growth": float(state.predictor.growth),
            "observations": int(state.predictor.observations),
        },
    }
    return arrays, meta


def stream_state_from_payload(
    arrays: dict[str, np.ndarray], meta: dict[str, Any]
) -> StreamState:
    """Rebuild a :class:`StreamState` from :func:`stream_state_to_payload`.

    Payloads that still carry ``stream_sparse``/``stream_keys`` load; the
    two arrays are ignored.
    """
    pred = meta["predictor"]
    return StreamState(
        basis=np.asarray(arrays["stream_basis"], dtype=np.float64),
        coeffs=np.asarray(arrays["stream_coeffs"], dtype=np.float64),
        row_err=np.asarray(arrays["stream_row_err"], dtype=np.float64),
        end=int(meta["end"]),
        updates=int(meta["updates"]),
        predictor=RankPredictor(
            min_dim=int(pred["min_dim"]),
            sv=int(pred["sv"]),
            growth=float(pred["growth"]),
            observations=int(pred["observations"]),
        ),
    )
