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
  iteration count of APG re-solves (IALM solves cold: see
  :mod:`repro.core.ialm`);
* **streaming wrap reuse** — a streaming-mode re-calibration over the very
  same cached rows as the last cold solve (a replay wrapping onto its
  first window again) is served from that solve's result;
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

from dataclasses import fields
from typing import Any, Protocol, runtime_checkable

import numpy as np

from .._validation import check_nonnegative, check_probability, off_diagonal
from ..errors import CalibrationError, ValidationError
from ..observability import Instrumentation, instrumented
from .decompose import Decomposition, decompose, decomposition_from_rows
from .matrices import TPMatrix
from .options import SolveOptions
from .result import SolverResult
from .solvers import solver_spec
from .streaming import StreamingDecomposer, StreamSeed, StreamState

__all__ = [
    "WindowSource",
    "TraceWindowSource",
    "DecompositionEngine",
]


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

    @property
    def n_machines(self) -> int:
        return int(self.trace.n_machines)

    @property
    def n_snapshots(self) -> int:
        return int(self.trace.n_snapshots)

    def snapshot_row(self, k: int, nbytes: float) -> np.ndarray:
        a = np.ascontiguousarray(self.trace.alpha[k], dtype=np.float64)
        b = np.ascontiguousarray(self.trace.beta[k], dtype=np.float64)
        w = np.zeros_like(a)
        # α + nbytes/β written straight into w's off-diagonal view: the same
        # two ufuncs, in the same operand order, as trace.tp_matrix.
        off = off_diagonal(w)
        np.divide(nbytes, off_diagonal(b), out=off)
        np.add(off_diagonal(a), off, out=off)
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
    options:
        How the solves run: solver, warm start and mode (see
        :class:`~repro.core.options.SolveOptions`; default
        ``SolveOptions()``). In ``"streaming"`` mode :meth:`calibrate`
        runs a **cold** batch solve and seeds a
        :class:`~repro.core.streaming.StreamingDecomposer`; single-snapshot
        window slides then fold in O(row) via :meth:`stream_fold`.
    extraction:
        Constant-row extraction rule (see
        :func:`~repro.core.decompose.constant_row`).
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
        options: SolveOptions | None = None,
        extraction: str = "mean",
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
        misplaced = sorted(set(solver_kwargs) & {f.name for f in fields(SolveOptions)})
        if misplaced:
            raise TypeError(f"pass {misplaced} as options=SolveOptions(...)")
        self.nbytes = float(nbytes)
        self.time_step = int(time_step)
        self.options = options if options is not None else SolveOptions()
        self.spec = solver_spec(self.options.solver)
        self.spec.validate_kwargs(solver_kwargs)
        self.extraction = extraction
        self.stream_config = self.options.stream_config
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
        # The cache stacked into checkpoint arrays; None once it changes.
        self._cache_arrays: dict[str, np.ndarray] | None = None
        self._last: Decomposition | None = None
        # Shared all-True mask row, allocated once and reused by every
        # partially-masked window instead of per call.
        self._full_mask_row: np.ndarray | None = None
        # Streaming mode: the row-cache entries of the last cold-solved,
        # fully observed window (their identity is the key), the result of
        # that solve and the stream seed prepared from it. Never exported:
        # a rebuilt engine misses once.
        self._solved: tuple[tuple[Any, ...], SolverResult, StreamSeed] | None = None

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

    def export_cache_arrays(self) -> dict[str, np.ndarray]:
        """The row cache stacked into read-only ``cache_*`` arrays.

        ``cache_keys`` (LRU order), ``cache_rows``, ``cache_has_mask`` and,
        when any row is masked, ``cache_masks`` (all-True rows for unmasked
        ones); empty when the cache is. Memoized until the cache changes,
        so captures in between hand out the very same array objects.
        """
        arrays = self._cache_arrays
        if arrays is None:
            arrays = {}
            if self._rows:
                entries = list(self._rows.values())
                rows = np.stack([row for row, _ in entries])
                has_mask = np.array([m is not None for _, m in entries], dtype=bool)
                arrays["cache_keys"] = np.array(list(self._rows), dtype=np.int64)
                arrays["cache_rows"] = rows
                arrays["cache_has_mask"] = has_mask
                if has_mask.any():
                    full = np.ones(rows.shape[1], dtype=bool)
                    arrays["cache_masks"] = np.stack(
                        [full if m is None else m for _, m in entries]
                    )
                for arr in arrays.values():
                    arr.setflags(write=False)
            self._cache_arrays = arrays
        return dict(arrays)

    def export_stream_state(self) -> StreamState | None:
        """Streaming subspace state, if seeded (always None in batch mode)."""
        return self._streamer.export_state() if self._streamer is not None else None

    def import_stream_state(self, state: StreamState | None) -> None:
        """Restore streaming state captured by :meth:`export_stream_state`.

        Folds after the import are bit-identical to the exporting engine's
        — the property the SIGKILL chaos harness pins.
        """
        if self.options.mode != "streaming":
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
        self._cache_arrays = None

    # -- rolling window cache ---------------------------------------------
    def _row(self, k: int) -> tuple[np.ndarray, np.ndarray | None]:
        self._cache_arrays = None
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
            self.options.warm_start
            and self.spec.supports_warm_start
            and seed is not None
            and seed.shape == tp.data.shape
        )
        if warm:
            kwargs["warm_start"] = seed
        self.instrumentation.count(
            "engine.solve.warm" if warm else "engine.solve.cold"
        )
        if tp.mask is not None:
            self.instrumentation.count("engine.solve.masked")
        with instrumented(self.instrumentation):
            with self.instrumentation.timed("engine.solve_seconds"):
                dec = decompose(
                    tp,
                    solver=self.options.solver,
                    extraction=self.extraction,
                    **kwargs,
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
        and the streaming subspace is (re)seeded from its result. A cold
        solve depends only on the window's rows, so when the window is
        built from the very same row-cache entries as the last cold-solved
        fully observed window (a replay that wraps onto the same snapshots
        again) that solve's result is served instead of solving again,
        counted as ``engine.solve.reused``, and the stream is reseeded from
        the seed prepared from it then. A row that was re-measured,
        re-imported or evicted since is a new object, hence a new solve.
        """
        start = max(0, end - self.time_step)
        if self.options.mode != "streaming":
            return self.solve(self.window(start, end))
        self._last = None  # certified: streaming-mode batch solves are cold
        tp = self.window(start, end)
        # The entries window() just read; None where the LRU bound already
        # evicted one.
        entries = tuple(self._rows.get(k) for k in range(start, end))
        memo = self._solved
        if memo is not None and len(memo[0]) == len(entries) and all(
            a is b for a, b in zip(memo[0], entries)
        ):
            self.instrumentation.count("engine.solve.reused")
            dec = decomposition_from_rows(
                [row for row, _ in entries],
                memo[1],
                n_machines=self.source.n_machines,
                solver=self.options.solver,
                extraction=self.extraction,
            )
            self._last = dec
            streamer = self._streamer_for(tp.data.shape)
            with instrumented(self.instrumentation):
                streamer.reseed(end, memo[2])
            return dec
        dec = self.solve(tp)
        seed = self._seed_stream(end, tp, dec)
        if seed is not None and None not in entries:
            self._solved = (entries, dec.solver_result, seed)
        return dec

    # -- streaming ---------------------------------------------------------
    def _streamer_for(self, shape: tuple[int, int]) -> StreamingDecomposer:
        if self._streamer is None or self._streamer.shape != tuple(shape):
            self._streamer = StreamingDecomposer(shape, self.stream_config)
        return self._streamer

    def _seed_stream(
        self, end: int, tp: TPMatrix, dec: Decomposition
    ) -> StreamSeed | None:
        """Seed the stream from a batch solve; return the seed it used."""
        sr = dec.solver_result
        if tp.mask is not None or sr is None:
            # Partially-observed windows (and solvers returning no raw
            # result) stay on the batch path: the stream is left unseeded
            # and stream_plan keeps answering "solve".
            if self._streamer is not None:
                self._streamer.state = None
            return None
        streamer = self._streamer_for(tp.data.shape)
        seed = streamer.prepare_seed(tp.data, sr.low_rank, sr.sparse)
        with instrumented(self.instrumentation):
            streamer.reseed(end, seed)
        return seed

    def stream_plan(self, end: int) -> str:
        """How to serve the window ending at *end*: ``"fold"`` or ``"solve"``.

        ``"fold"`` only when seeded streaming state covers the immediately
        preceding full-length window — a single-snapshot forward slide.
        Anything else (unseeded, gap, trace wraparound, short boot window)
        needs a batch solve via :meth:`calibrate`.
        """
        if self.options.mode != "streaming":
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
                # The slid window's rows, read as window() would read them
                # (same LRU order and counters) but never stacked: the
                # decomposition builds its error component from them only
                # if it is read. No row here is masked: a masked window
                # never seeds the stream and a masked row never folds.
                rows = [self._row(j)[0] for j in range(end - self.time_step, end)]
                dec = decomposition_from_rows(
                    rows,
                    self._streamer.as_result(self.extraction),
                    n_machines=self.source.n_machines,
                    solver=self.options.solver,
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
