"""The decomposition engine: rolling windows, warm starts, instrumentation.

Algorithm 1 keeps re-running "calibrate a window, RPCA it" as the trace
advances, and historically every layer re-derived the TP-matrix from scratch
(``trace.tp_matrix(...)``) and solved cold each time. The
:class:`DecompositionEngine` owns that loop for long-running operation:

* a **rolling window cache** — per-snapshot weight rows are computed once
  and stitched into TP-matrix windows, byte-identical to
  ``trace.tp_matrix(nbytes, start, count)``, so successive overlapping
  windows share all their unchanged rows;
* **warm-started recalibration** — when the registered solver supports it
  (see :class:`~repro.core.solvers.SolverSpec.supports_warm_start`), each
  solve is initialized from the previous window's solution, cutting the
  iteration count of APG/IALM re-solves;
* **instrumentation** — every solve lands a
  :class:`~repro.observability.SolveSpan` plus warm/cold and cache-hit
  counters in the engine's :class:`~repro.observability.Instrumentation`
  (and any outer sink activated via
  :func:`~repro.observability.instrumented`).

The engine reads snapshots through the small :class:`WindowSource` protocol;
a :class:`~repro.cloudsim.trace.CalibrationTrace` is adapted automatically,
and :meth:`repro.calibration.calibrator.Calibrator.engine` adapts a live
measurement substrate.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

import numpy as np

from .._validation import check_nonnegative, check_probability
from ..errors import CalibrationError, ValidationError
from ..observability import Instrumentation, instrumented
from .batch import BatchedSolveWorkspace, solve_rpca_batch, validate_batch_dtype
from .decompose import Decomposition, decompose, decomposition_from_result
from .kernels import BatchRankPredictor, RankPredictor, validate_backend
from .matrices import TPMatrix
from .solvers import solver_spec
from .streaming import (
    StreamingConfig,
    StreamingDecomposer,
    StreamState,
    validate_mode,
)

__all__ = [
    "WindowSource",
    "TraceWindowSource",
    "DecompositionEngine",
    "BatchDecompositionEngine",
    "EngineWarmState",
]


@dataclass(frozen=True)
class EngineWarmState:
    """Picklable capsule of an engine's warm state.

    Everything a :class:`DecompositionEngine` accumulates across solves that
    is worth shipping to another process: the rolling row cache (LRU order
    preserved by dict insertion order) and the last decomposition — the
    warm-start seed. Both are plain numpy arrays and frozen dataclasses, so
    the capsule round-trips losslessly through ``pickle`` (and therefore
    through multiprocessing queues); a solve resumed from an imported
    capsule is bit-identical to one that never crossed the process
    boundary. The fleet scheduler round-trips this between ticks so any
    worker can pick up any cluster's next window.

    ``predictors`` carries the per-shape
    :class:`~repro.core.kernels.RankPredictor` state (keyed by the short
    side of the solved matrices) when the engine runs a partial SVD
    backend, so a resumed engine's steady-state rank prediction is as warm
    as its warm-start seed. Capsules from older releases lack the field;
    :meth:`DecompositionEngine.import_warm_state` treats that as "no
    predictor state".
    """

    rows: dict[int, tuple[np.ndarray, np.ndarray | None]]
    last: Decomposition | None
    predictors: dict[int, RankPredictor] = field(default_factory=dict)
    # Streaming-mode subspace state (None for batch engines and capsules
    # from releases that predate the streaming path).
    stream: StreamState | None = None


@runtime_checkable
class WindowSource(Protocol):
    """Anything the engine can read calibration snapshots from."""

    @property
    def n_machines(self) -> int:
        """Number of machines per snapshot."""
        ...

    @property
    def n_snapshots(self) -> int:
        """Number of snapshots addressable by :meth:`snapshot_row`."""
        ...

    def snapshot_row(self, k: int, nbytes: float) -> np.ndarray:
        """Snapshot *k* as a flattened ``N²`` weight row for *nbytes*."""
        ...

    def timestamp(self, k: int) -> float:
        """Measurement time of snapshot *k* in seconds."""
        ...

    # Sources backed by unreliable measurements may additionally expose
    #     snapshot_mask(k) -> np.ndarray | None
    # returning a flattened N² boolean observation mask for snapshot *k*
    # (True = observed), or None when the snapshot is complete. The engine
    # calls it immediately after snapshot_row(k, ...) for the same k, so a
    # source can memoize one measurement to answer both consistently.


class TraceWindowSource:
    """Adapt a :class:`~repro.cloudsim.trace.CalibrationTrace` to :class:`WindowSource`.

    Row values are computed exactly as ``trace.tp_matrix`` computes them
    (same elementwise operations on the same α/β entries), so windows
    assembled from these rows are byte-identical to the direct call.
    """

    def __init__(self, trace: Any) -> None:
        for attr in ("alpha", "beta", "timestamps", "n_machines", "n_snapshots"):
            if not hasattr(trace, attr):
                raise ValidationError(
                    f"trace-like source must expose {attr!r}; got {type(trace).__name__}"
                )
        self.trace = trace
        self._off = ~np.eye(trace.n_machines, dtype=bool)

    @property
    def n_machines(self) -> int:
        return int(self.trace.n_machines)

    @property
    def n_snapshots(self) -> int:
        return int(self.trace.n_snapshots)

    def snapshot_row(self, k: int, nbytes: float) -> np.ndarray:
        a = self.trace.alpha[k]
        b = self.trace.beta[k]
        w = np.zeros_like(a)
        w[self._off] = a[self._off] + nbytes / b[self._off]
        return w.reshape(-1)

    def snapshot_mask(self, k: int) -> np.ndarray | None:
        """Flattened observation mask for snapshot *k*, if the trace has one."""
        mask = getattr(self.trace, "mask", None)
        if mask is None:
            return None
        return np.asarray(mask[k], dtype=bool).reshape(-1)

    def timestamp(self, k: int) -> float:
        return float(self.trace.timestamps[k])


class DecompositionEngine:
    """Warm-started decomposition over rolling windows of a snapshot source.

    Parameters
    ----------
    source:
        A :class:`WindowSource`, or a
        :class:`~repro.cloudsim.trace.CalibrationTrace` (adapted
        automatically).
    nbytes:
        Message size the TP-matrix windows are built for.
    time_step:
        Calibration window length (paper default 10).
    solver:
        Registered solver name; validated at construction.
    extraction:
        Constant-row extraction rule (see
        :func:`~repro.core.decompose.constant_row`).
    warm_start:
        Initialize each solve from the previous window's solution when the
        solver supports it. Disable for bitwise cold-path reproduction.
    svd_backend:
        SVD kernel for the solver's singular value thresholding — one of
        :data:`repro.core.kernels.SVD_BACKENDS` (default ``"exact"``, the
        historical bit-identical path). With a partial backend the engine
        additionally keeps one
        :class:`~repro.core.kernels.RankPredictor` per solved shape and
        threads it through successive solves, so warm re-calibrations skip
        the rank ramp-up. Requires a solver that takes ``svd_backend``
        (APG/IALM).
    mode:
        ``"batch"`` (default) — every :meth:`calibrate` is a full window
        solve, the historical path. ``"streaming"`` — :meth:`calibrate`
        runs a **cold** batch solve and seeds a
        :class:`~repro.core.streaming.StreamingDecomposer`; single-snapshot
        window slides then fold in O(row) via :meth:`stream_fold`, with any
        rank-growth/drift/masked-row fallback routing back to a cold batch
        solve bit-identical to :func:`~repro.core.decompose.decompose` on
        the same window (the certified-oracle contract).
    stream_tolerance:
        Streaming drift ceiling (see
        :class:`~repro.core.streaming.StreamingConfig.tolerance`); only
        meaningful with ``mode="streaming"``.
    stream_refresh_every:
        Streaming re-orthonormalization cadence in folds; only meaningful
        with ``mode="streaming"``.
    instrumentation:
        Sink for counters and solve spans; a fresh one is created if omitted.
    max_cached_rows:
        Bound on the per-snapshot row cache (LRU eviction); ``None`` keeps
        every row ever computed — right for replays that wrap around.
    min_snapshot_observed:
        Minimum off-diagonal observed fraction a single snapshot must reach
        for a window containing it to be usable; below it :meth:`window`
        raises :class:`~repro.errors.CalibrationError`. 0.0 (default)
        accepts any snapshot with at least one observation.
    min_window_observed:
        Same threshold for the window as a whole.
    **solver_kwargs:
        Forwarded to every solve (``tol``, ``max_iter``, ...); validated
        against the solver's :class:`~repro.core.solvers.SolverSpec`.
    """

    def __init__(
        self,
        source: Any,
        *,
        nbytes: float,
        time_step: int = 10,
        solver: str = "apg",
        extraction: str = "mean",
        warm_start: bool = True,
        svd_backend: str = "exact",
        mode: str = "batch",
        stream_tolerance: float | None = None,
        stream_refresh_every: int | None = None,
        instrumentation: Instrumentation | None = None,
        max_cached_rows: int | None = None,
        min_snapshot_observed: float = 0.0,
        min_window_observed: float = 0.0,
        **solver_kwargs: Any,
    ) -> None:
        if not isinstance(source, WindowSource):
            source = TraceWindowSource(source)
        self.source: WindowSource = source
        check_nonnegative(nbytes, "nbytes")
        if int(time_step) < 1:
            raise ValidationError("time_step must be >= 1")
        if max_cached_rows is not None and int(max_cached_rows) < 1:
            raise ValidationError("max_cached_rows must be >= 1 or None")
        self.nbytes = float(nbytes)
        self.time_step = int(time_step)
        self.solver = solver
        self.spec = solver_spec(solver)  # fails fast on unknown names
        self.spec.validate_kwargs(solver_kwargs)
        self.extraction = extraction
        self.warm_start = bool(warm_start)
        self.svd_backend = validate_backend(svd_backend)
        if svd_backend != "exact" and not (
            self.spec.accepts_any_kwargs or "svd_backend" in self.spec.accepted_kwargs
        ):
            raise ValidationError(
                f"solver {solver!r} does not take an SVD backend; "
                "only SVT-based solvers such as 'apg' or 'ialm' do"
            )
        self.mode = validate_mode(mode)
        if self.mode != "streaming" and (
            stream_tolerance is not None or stream_refresh_every is not None
        ):
            raise ValidationError(
                "stream_tolerance/stream_refresh_every require mode='streaming'"
            )
        stream_overrides: dict[str, Any] = {}
        if stream_tolerance is not None:
            stream_overrides["tolerance"] = float(stream_tolerance)
        if stream_refresh_every is not None:
            stream_overrides["refresh_every"] = int(stream_refresh_every)
        self.stream_config = StreamingConfig(**stream_overrides)
        self._streamer: StreamingDecomposer | None = None
        self.solver_kwargs = dict(solver_kwargs)
        self.instrumentation = (
            instrumentation if instrumentation is not None else Instrumentation("engine")
        )
        self.max_cached_rows = max_cached_rows
        self.min_snapshot_observed = check_probability(
            min_snapshot_observed, "min_snapshot_observed"
        )
        self.min_window_observed = check_probability(
            min_window_observed, "min_window_observed"
        )
        # Insertion order == LRU order; values are (row, mask_row | None).
        self._rows: dict[int, tuple[np.ndarray, np.ndarray | None]] = {}
        self._last: Decomposition | None = None
        # Per-shape adaptive rank prediction (partial SVD backends only),
        # keyed by the short side of the solved matrix and threaded through
        # every solve so recalibrations keep the steady-state rank.
        self._predictors: dict[int, RankPredictor] = {}
        # Shared all-True mask row, allocated once and reused by every
        # partially-masked window instead of per call.
        self._full_mask_row: np.ndarray | None = None

    # -- state ------------------------------------------------------------
    @property
    def last(self) -> Decomposition | None:
        """The most recent decomposition (the warm-start seed), if any."""
        return self._last

    def reset_warm_state(self) -> None:
        """Forget the previous solution; the next solve starts cold.

        In streaming mode this also drops the streaming subspace state, so
        a regime-shift cold re-calibration reseeds the stream from scratch.
        """
        self._last = None
        if self._streamer is not None:
            self._streamer.state = None

    def restore_warm_state(self, dec: Decomposition) -> None:
        """Seed the warm-start chain with a restored decomposition.

        The recovery path re-materializes the checkpointed decomposition and
        hands it back here, so post-recovery re-calibrations warm-start from
        exactly the solution the crashed process would have used.
        """
        self._last = dec

    def snapshot_residual(self, k: int) -> float:
        """Relative L1 residual of snapshot *k* against the constant in service.

        ``||row_k − c||₁ / ||row_k||₁`` over observed entries — the
        per-snapshot analogue of ``Norm(N_E)``, fed to the
        :class:`~repro.core.maintenance.CusumRegimeDetector`. Requires a
        previous solve (the constant row ``c`` comes from :attr:`last`).
        """
        if self._last is None:
            raise ValidationError("no decomposition yet; calibrate first")
        row, mask_row = self._row(int(k))
        c = self._last.constant.row
        if mask_row is not None:
            row = row[mask_row]
            c = c[mask_row]
        denom = float(np.abs(row).sum())
        if denom == 0.0:
            return 0.0
        return float(np.abs(row - c).sum()) / denom

    # -- persistence -------------------------------------------------------
    def export_cache(self) -> dict[int, tuple[np.ndarray, np.ndarray | None]]:
        """The rolling row cache, LRU order preserved (oldest first)."""
        return dict(self._rows)

    def export_warm_state(self) -> EngineWarmState:
        """Everything warm about this engine, as a picklable capsule."""
        return EngineWarmState(
            rows=self.export_cache(),
            last=self._last,
            predictors=dict(self._predictors),
            stream=self.export_stream_state(),
        )

    def import_warm_state(self, state: EngineWarmState) -> None:
        """Adopt a capsule exported (possibly in another process) by
        :meth:`export_warm_state`; subsequent solves are bit-identical to
        the exporting engine's."""
        self.import_cache(state.rows)
        self._last = state.last
        # Older capsules predate predictor state; keep whatever we have.
        predictors = getattr(state, "predictors", None)
        if predictors:
            self._predictors = dict(predictors)
        stream = getattr(state, "stream", None)
        if stream is not None:
            self.import_stream_state(stream)

    def export_stream_state(self) -> StreamState | None:
        """Streaming subspace state, if seeded (always None in batch mode)."""
        return self._streamer.export_state() if self._streamer is not None else None

    def import_stream_state(self, state: StreamState | None) -> None:
        """Restore streaming state captured by :meth:`export_stream_state`.

        Folds after the import are bit-identical to the exporting engine's
        — the property the SIGKILL chaos harness pins.
        """
        if self.mode != "streaming":
            raise ValidationError("import_stream_state requires mode='streaming'")
        if state is None:
            if self._streamer is not None:
                self._streamer.state = None
            return
        shape = (int(state.sparse.shape[0]), int(state.sparse.shape[1]))
        self._streamer_for(shape).import_state(state)

    def import_cache(
        self, rows: dict[int, tuple[np.ndarray, np.ndarray | None]]
    ) -> None:
        """Replace the row cache with a restored one (insertion order = LRU)."""
        restored: dict[int, tuple[np.ndarray, np.ndarray | None]] = {}
        for k, (row, mask_row) in rows.items():
            row = np.asarray(row, dtype=np.float64)
            row.setflags(write=False)
            if mask_row is not None:
                mask_row = np.asarray(mask_row, dtype=bool)
                mask_row.setflags(write=False)
            restored[int(k)] = (row, mask_row)
        self._rows = restored

    # -- rolling window cache ---------------------------------------------
    def _row(self, k: int) -> tuple[np.ndarray, np.ndarray | None]:
        entry = self._rows.pop(k, None)
        if entry is None:
            self.instrumentation.count("engine.window.miss")
            row = np.asarray(self.source.snapshot_row(k, self.nbytes), dtype=np.float64)
            row.setflags(write=False)
            mask_fn = getattr(self.source, "snapshot_mask", None)
            mask_row = mask_fn(k) if callable(mask_fn) else None
            if mask_row is not None:
                mask_row = np.asarray(mask_row, dtype=bool).reshape(-1)
                if mask_row.all():
                    mask_row = None
                else:
                    mask_row.setflags(write=False)
                    self.instrumentation.count("engine.window.masked_rows")
            entry = (row, mask_row)
        else:
            self.instrumentation.count("engine.window.hit")
        self._rows[k] = entry  # re-insert: most recently used
        if self.max_cached_rows is not None and len(self._rows) > self.max_cached_rows:
            self._rows.pop(next(iter(self._rows)))  # least recently used
        return entry

    def window(self, start: int, stop: int) -> TPMatrix:
        """TP-matrix for snapshots ``[start, stop)`` from cached rows.

        Byte-identical to ``trace.tp_matrix(nbytes, start=start,
        count=stop-start)`` for trace-backed sources.

        Raises
        ------
        CalibrationError
            When the source reports unobserved entries and a snapshot (or
            the window as a whole) falls below the configured completeness
            thresholds.
        """
        t = self.source.n_snapshots
        if not 0 <= start < stop <= t:
            raise ValidationError(f"invalid window [{start}, {stop}) for {t} snapshots")
        row_list: list[np.ndarray] = []
        mask_list: list[np.ndarray | None] = []
        has_mask = False
        for k in range(start, stop):
            row, mask_row = self._row(k)
            row_list.append(row)
            mask_list.append(mask_row)
            has_mask = has_mask or mask_row is not None
        rows = np.stack(row_list)
        ts = np.array([self.source.timestamp(k) for k in range(start, stop)])
        # Fully-observed windows (every cached mask None) short-circuit to
        # mask=None — no per-call mask allocation on the fleet hot loop.
        mask = None
        if has_mask:
            full = self._full_mask_row
            if full is None or full.shape[0] != rows.shape[1]:
                full = np.ones(rows.shape[1], dtype=bool)
                full.setflags(write=False)
                self._full_mask_row = full
            mask = np.stack([full if m is None else m for m in mask_list])
        tp = TPMatrix(
            data=rows, n_machines=self.source.n_machines, timestamps=ts, mask=mask
        )
        if tp.mask is not None:
            fractions = tp.row_observed_fractions()
            worst = int(np.argmin(fractions))
            if fractions[worst] < self.min_snapshot_observed:
                self.instrumentation.count("engine.window.rejected")
                raise CalibrationError(
                    f"snapshot {start + worst} is only "
                    f"{fractions[worst]:.1%} observed "
                    f"(< {self.min_snapshot_observed:.1%} required)"
                )
            if tp.observed_fraction < self.min_window_observed:
                self.instrumentation.count("engine.window.rejected")
                raise CalibrationError(
                    f"window [{start}, {stop}) is only "
                    f"{tp.observed_fraction:.1%} observed "
                    f"(< {self.min_window_observed:.1%} required)"
                )
        return tp

    # -- solving -----------------------------------------------------------
    def solve(self, tp: TPMatrix) -> Decomposition:
        """Decompose *tp*, warm-starting from the previous solve if possible."""
        kwargs = dict(self.solver_kwargs)
        seed = self._last.solver_result if self._last is not None else None
        warm = (
            self.warm_start
            and self.spec.supports_warm_start
            and seed is not None
            and seed.shape == tp.data.shape
        )
        if warm:
            kwargs["warm_start"] = seed
        if self.svd_backend != "exact":
            kwargs["svd_backend"] = self.svd_backend
            min_dim = min(tp.data.shape)
            predictor = self._predictors.get(min_dim)
            if predictor is None:
                predictor = RankPredictor.for_shape(tp.data.shape)
                self._predictors[min_dim] = predictor
            kwargs["rank_predictor"] = predictor
        self.instrumentation.count(
            "engine.solve.warm" if warm else "engine.solve.cold"
        )
        if tp.mask is not None:
            self.instrumentation.count("engine.solve.masked")
        with instrumented(self.instrumentation):
            with self.instrumentation.timed("engine.solve_seconds"):
                dec = decompose(
                    tp, solver=self.solver, extraction=self.extraction, **kwargs
                )
        self._last = dec
        return dec

    def calibrate(self, end: int) -> Decomposition:
        """Solve the trailing ``time_step`` window ending at snapshot *end*.

        The Algorithm-1 re-calibration primitive: windows from successive
        calls overlap, so rows come from the cache and the solve warm-starts
        from the previous solution.

        In streaming mode every calibrate is the *certified oracle*: the
        warm-start chain is dropped first, so the solve is bit-identical to
        a cold :func:`~repro.core.decompose.decompose` of the same window,
        and the streaming subspace is (re)seeded from its result.
        """
        start = max(0, end - self.time_step)
        if self.mode != "streaming":
            return self.solve(self.window(start, end))
        self._last = None  # certified: streaming-mode batch solves are cold
        tp = self.window(start, end)
        dec = self.solve(tp)
        self._seed_stream(end, tp, dec)
        return dec

    # -- streaming ---------------------------------------------------------
    def _streamer_for(self, shape: tuple[int, int]) -> StreamingDecomposer:
        if self._streamer is None or self._streamer.shape != tuple(shape):
            self._streamer = StreamingDecomposer(shape, self.stream_config)
        return self._streamer

    def _seed_stream(self, end: int, tp: TPMatrix, dec: Decomposition) -> None:
        sr = dec.solver_result
        if tp.mask is not None or sr is None:
            # Partially-observed windows (and solvers returning no raw
            # result) stay on the batch path: the stream is left unseeded
            # and stream_plan keeps answering "solve".
            if self._streamer is not None:
                self._streamer.state = None
            return
        streamer = self._streamer_for(tp.data.shape)
        with instrumented(self.instrumentation):
            streamer.seed(
                end=end, data=tp.data, low_rank=sr.low_rank, sparse=sr.sparse
            )

    def stream_plan(self, end: int) -> str:
        """How to serve the window ending at *end*: ``"fold"`` or ``"solve"``.

        ``"fold"`` only when seeded streaming state covers the immediately
        preceding full-length window — a single-snapshot forward slide.
        Anything else (unseeded, gap, trace wraparound, short boot window)
        needs a batch solve via :meth:`calibrate`.
        """
        if self.mode != "streaming":
            raise ValidationError("stream_plan requires mode='streaming'")
        st = self._streamer.state if self._streamer is not None else None
        end = int(end)
        if (
            st is None
            or end - st.end != 1
            or st.end < self.time_step
            or end > self.source.n_snapshots
        ):
            return "solve"
        return "fold"

    def stream_fold(self, end: int) -> tuple[Decomposition | None, str | None]:
        """Fold the single-snapshot slide to window end *end* in O(row).

        Returns ``(decomposition, None)`` on success — the decomposition is
        now in service (with ``solver_result=None``: it can never seed a
        warm start). On fallback returns ``(None, reason)`` with streaming
        state dropped; the caller must :meth:`calibrate`, which re-solves
        cold and reseeds.
        """
        if self.stream_plan(end) != "fold":
            raise ValidationError(
                f"window ending at {end} cannot fold; call calibrate() instead"
            )
        assert self._streamer is not None
        k = int(end) - 1
        row, mask_row = self._row(k)
        if mask_row is not None:
            self._stream_fallback("masked")
            return None, "masked"
        with instrumented(self.instrumentation):
            with self.instrumentation.timed("kernel.stream.update_seconds"):
                reason = self._streamer.fold(k, row)
                if reason is not None:
                    self._stream_fallback(reason)
                    return None, reason
                tp = self.window(end - self.time_step, end)
                dec = decomposition_from_result(
                    tp,
                    self._streamer.as_result(),
                    solver=self.solver,
                    extraction=self.extraction,
                )
        self.instrumentation.count("kernel.stream.updates")
        self._last = dec
        return dec, None

    def _stream_fallback(self, reason: str) -> None:
        if self._streamer is not None:
            self._streamer.state = None
        self.instrumentation.count("kernel.stream.fallbacks")
        self.instrumentation.count(f"kernel.stream.fallback_{reason}")


class BatchDecompositionEngine:
    """Decompose many TP-matrices at once through stacked batched solves.

    The fleet-facing counterpart of :class:`DecompositionEngine`: instead of
    one rolling window per engine, it takes a whole sweep's worth of
    TP-matrices (one per cluster) and solves them as ``(B, m, n)`` stacks
    through :func:`~repro.core.batch.solve_rpca_batch`, grouping by shape so
    heterogeneous fleets still batch whatever they can. Per
    ``(B, m, n)`` combination it keeps one
    :class:`~repro.core.batch.BatchedSolveWorkspace` (so steady-state sweeps
    run allocation-free) and one
    :class:`~repro.core.kernels.BatchRankPredictor` (so successive sweeps
    keep their converged-rank estimate).

    Slice *b* of a batched float64 solve is bit-identical to the
    single-matrix ``svd_backend="gram"`` solve of the same matrix, so
    decompositions from this engine match per-cluster
    :func:`~repro.core.decompose.decompose` calls exactly — batching is an
    execution strategy, not a semantic change.

    Parameters
    ----------
    solver:
        ``"apg"`` or ``"ialm"`` run batched; other registered solvers run
        through the per-matrix fallback (see *fallback*).
    extraction:
        Constant-row extraction rule, as in :func:`~repro.core.decompose.decompose`.
    dtype:
        Batch iterate dtype — ``"float64"`` (default, the bit-parity mode)
        or ``"float32"`` (fast iterate + float64 refinement).
    fallback:
        Forwarded to :func:`~repro.core.batch.solve_rpca_batch`: permit the
        certified per-matrix fallback when the batched loop cannot serve a
        group. ``False`` raises instead.
    instrumentation:
        Sink for ``kernel.batch.*`` counters and solve spans; a fresh one is
        created if omitted.
    **solver_kwargs:
        Iteration controls forwarded to every solve (``tol``, ``max_iter``,
        ...); validated against the solver's spec.
    """

    def __init__(
        self,
        *,
        solver: str = "apg",
        extraction: str = "mean",
        dtype: str = "float64",
        fallback: bool = True,
        instrumentation: Instrumentation | None = None,
        **solver_kwargs: Any,
    ) -> None:
        self.solver = solver
        self.spec = solver_spec(solver)  # fails fast on unknown names
        self.spec.validate_kwargs(solver_kwargs)
        self.extraction = extraction
        self.dtype = validate_batch_dtype(dtype)
        self.fallback = bool(fallback)
        self.solver_kwargs = dict(solver_kwargs)
        self.instrumentation = (
            instrumentation
            if instrumentation is not None
            else Instrumentation("batch-engine")
        )
        self._workspaces: dict[tuple[int, int, int], BatchedSolveWorkspace] = {}
        self._predictors: dict[tuple[int, int, int], BatchRankPredictor] = {}

    def workspace_for(self, shape: tuple[int, int, int]) -> BatchedSolveWorkspace:
        """The reusable workspace for stacked shape ``(B, m, n)``."""
        key = tuple(int(s) for s in shape)
        ws = self._workspaces.get(key)
        if ws is None:
            ws = BatchedSolveWorkspace(key)
            self._workspaces[key] = ws
        return ws

    def _predictor_for(self, shape: tuple[int, int, int]) -> BatchRankPredictor:
        key = tuple(int(s) for s in shape)
        pred = self._predictors.get(key)
        if pred is None:
            pred = BatchRankPredictor.for_stack(key)
            self._predictors[key] = pred
        return pred

    def decompose_batch(self, tps: Sequence[TPMatrix]) -> list[Decomposition]:
        """Decompose every TP-matrix in *tps*; results return in input order.

        Matrices are grouped by data shape; each group solves as one stacked
        batch (masked and unmasked windows may share a group — the batched
        solver partitions them internally).
        """
        tps = list(tps)
        if not tps:
            raise ValidationError("decompose_batch needs at least one TP-matrix")
        for i, tp in enumerate(tps):
            if not isinstance(tp, TPMatrix):
                raise ValidationError(
                    f"tps[{i}] must be a TPMatrix, got {type(tp).__name__}"
                )
        groups: dict[tuple[int, int], list[int]] = {}
        for i, tp in enumerate(tps):
            groups.setdefault(tp.data.shape, []).append(i)
        out: list[Decomposition | None] = [None] * len(tps)
        self.instrumentation.count("engine.batch.windows", len(tps))
        self.instrumentation.count("engine.batch.groups", len(groups))
        with instrumented(self.instrumentation):
            with self.instrumentation.timed("engine.batch_seconds"):
                for shape, idxs in groups.items():
                    stacked = (len(idxs), *shape)
                    mats = [tps[i].data for i in idxs]
                    mask_list = [tps[i].mask for i in idxs]
                    masks = (
                        None if all(mk is None for mk in mask_list) else mask_list
                    )
                    results = solve_rpca_batch(
                        mats,
                        masks,
                        solver=self.solver,
                        dtype=self.dtype,
                        workspace=self.workspace_for(stacked),
                        rank_predictor=self._predictor_for(stacked),
                        context="batch-engine",
                        fallback=self.fallback,
                        **self.solver_kwargs,
                    )
                    for i, res in zip(idxs, results):
                        out[i] = decomposition_from_result(
                            tps[i], res, solver=self.solver, extraction=self.extraction
                        )
        return out  # type: ignore[return-value]  # every slot filled above
