"""Serializing full session state to checkpoint arrays + metadata.

The split follows the checkpoint container's two channels: everything
array-shaped (TP-window row cache, the decomposition in service, the
deviation history) goes into the numpy payload; everything scalar or
structured (config, cursor, counters, health machine, detector state) goes
into the JSON metadata. ``STATE_SCHEMA_VERSION`` guards the
layout — recovery refuses a checkpoint written by an incompatible schema
rather than misinterpreting its arrays.

The capture functions take the session duck-typed (this module must not
import :mod:`repro.runtime.session`, which imports it back); restoration of
the session object itself lives in
:meth:`~repro.runtime.session.TraceSession.resume`, which calls the
``*_from_state`` helpers here.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict
from typing import Any, Callable, Sequence

import numpy as np

from ..cloudsim.trace import CalibrationTrace
from ..core.decompose import Decomposition
from ..core.matrices import TCMatrix, TEMatrix
from ..core.metrics import StabilityReport
from ..core.streaming import stream_state_to_payload
from ..errors import CheckpointCorruption
from .checkpoint import BLOCK_SEPARATOR

__all__ = [
    "STATE_SCHEMA_VERSION",
    "HISTORY_BLOCK_ROWS",
    "trace_sha256",
    "trace_to_arrays",
    "trace_from_arrays",
    "capture_session_state",
    "HistoryEncoder",
    "FloatListEncoder",
    "history_rows_from_state",
    "decomposition_from_state",
    "engine_cache_from_state",
    "check_schema",
]

STATE_SCHEMA_VERSION = 1


# -- trace identity and round-trip ----------------------------------------
def trace_sha256(trace: CalibrationTrace) -> str:
    """Content hash of a trace (values + mask), for recovery validation."""
    h = hashlib.sha256()
    for arr in (trace.alpha, trace.beta, trace.timestamps):
        h.update(np.ascontiguousarray(arr).tobytes())
    if trace.mask is not None:
        h.update(np.ascontiguousarray(trace.mask).tobytes())
    return h.hexdigest()


def trace_to_arrays(
    trace: CalibrationTrace, *, prefix: str = "trace_"
) -> dict[str, np.ndarray]:
    """A trace as checkpoint-ready arrays (inverse: :func:`trace_from_arrays`)."""
    arrays = {
        f"{prefix}alpha": trace.alpha,
        f"{prefix}beta": trace.beta,
        f"{prefix}timestamps": trace.timestamps,
    }
    if trace.mask is not None:
        arrays[f"{prefix}mask"] = trace.mask
    return arrays


def trace_from_arrays(
    arrays: dict[str, np.ndarray], *, prefix: str = "trace_"
) -> CalibrationTrace:
    """Rebuild a trace from :func:`trace_to_arrays` output."""
    return CalibrationTrace(
        alpha=arrays[f"{prefix}alpha"],
        beta=arrays[f"{prefix}beta"],
        timestamps=arrays[f"{prefix}timestamps"],
        mask=arrays.get(f"{prefix}mask"),
    )


# -- decomposition ---------------------------------------------------------
def _decomposition_to_state(
    dec: Decomposition, arrays: dict[str, np.ndarray]
) -> dict[str, Any]:
    arrays["dec_row"] = dec.constant.row
    arrays["dec_error"] = dec.error.data
    return {
        "solver": dec.solver,
        "iterations": dec.solver_iterations,
        "converged": bool(dec.solver_converged),
        "n_rows": dec.constant.n_rows,
        "n_machines": dec.constant.n_machines,
        "report": {
            "norm_ne": dec.report.norm_ne,
            "norm_ne_l0": dec.report.norm_ne_l0,
            "rank": dec.report.rank,
            "verdict": dec.report.verdict,
        },
    }


def decomposition_from_state(
    arrays: dict[str, np.ndarray], meta: dict[str, Any]
) -> Decomposition:
    """Re-materialize the decomposition in service from checkpoint state.

    Its ``solver_result`` is ``None``: nothing reads a restored solve's raw
    components. States written when a warm-starting solver existed also
    carry them (``sr_*`` arrays, a ``solver_result`` entry); both are
    ignored.
    """
    report = StabilityReport(
        norm_ne=float(meta["report"]["norm_ne"]),
        norm_ne_l0=float(meta["report"]["norm_ne_l0"]),
        rank=int(meta["report"]["rank"]),
        verdict=str(meta["report"]["verdict"]),
    )
    return Decomposition(
        constant=TCMatrix(
            row=arrays["dec_row"],
            n_rows=int(meta["n_rows"]),
            n_machines=int(meta["n_machines"]),
        ),
        error=TEMatrix(data=arrays["dec_error"], n_machines=int(meta["n_machines"])),
        report=report,
        solver=str(meta["solver"]),
        solver_iterations=int(meta["iterations"]),
        solver_converged=bool(meta["converged"]),
    )


# -- engine row cache ------------------------------------------------------
# Captured through DecompositionEngine.export_cache_arrays (memoized there).
def engine_cache_from_state(
    arrays: dict[str, np.ndarray],
) -> dict[int, tuple[np.ndarray, np.ndarray | None]]:
    """Rebuild the engine's row cache (LRU order preserved by key order)."""
    if "cache_keys" not in arrays:
        return {}
    keys = arrays["cache_keys"]
    rows = arrays["cache_rows"]
    has_mask = arrays["cache_has_mask"]
    masks = arrays.get("cache_masks")
    cache: dict[int, tuple[np.ndarray, np.ndarray | None]] = {}
    for i, k in enumerate(keys):
        mask_row = masks[i] if (masks is not None and has_mask[i]) else None
        cache[int(k)] = (rows[i], mask_row)
    return cache


# -- operation history -----------------------------------------------------
# One record per operation for the session's whole lifetime, so the JSON
# channel must not carry it: numeric fields go to arrays, categorical
# strings become int32 codes plus a small legend in the metadata. The
# encoders keep each column in fixed blocks of HISTORY_BLOCK_ROWS rows and
# extend them by what was appended since the last capture. A full block is
# sealed: read-only from then on and handed out as the arrays
# ``<block>/<column>``, which a CheckpointStore writes once as a mirrored
# segment of their own. Only the open tail (under the column's own name)
# changes between captures, so capture and checkpoint cost stay flat as
# the session ages; join_blocks puts the columns back together on load.
# Block i of the history columns and of the deviations share the name
# ``hist-<i>``: both hold operations i*4096 to (i+1)*4096 - 1, so they
# seal together and go to one segment.
HISTORY_BLOCK_ROWS = 4096
_HISTORY_CATEGORICALS = ("op", "decision", "health", "regime")


class _AppendCursor:
    """Where an append-only sequence continues since the previous look at it.

    A sequence that was replaced or truncated — told by the identity of the
    sequence and of the last item seen — starts over from index 0. With a
    *key*, the last item is recognised by its key instead of its identity:
    an ``array('d')`` hands out a new float object on every read.
    """

    def __init__(self, key: Callable[[Any], Any] | None = None) -> None:
        self._key = key
        self._items: Any = None
        self._n = 0
        self._last: Any = None

    def _mark(self, item: Any) -> Any:
        return item if self._key is None else self._key(item)

    def advance(self, items: Sequence[Any]) -> int:
        """Index of the first item not seen before (0: all of them)."""
        n = self._n
        if items is not self._items or len(items) < n or (
            n and not self._seen(items[n - 1])
        ):
            n = 0
        self._items = items
        self._n = len(items)
        self._last = self._mark(items[-1]) if len(items) else None
        return n

    def _seen(self, item: Any) -> bool:
        if self._key is None:
            return item is self._last
        return self._key(item) == self._last


class _BlockedColumns:
    """Equal-length append-only columns kept as sealed blocks plus a tail.

    The tail grows by doubling up to :data:`HISTORY_BLOCK_ROWS` rows; once
    full, its buffers become a sealed block as they are (no copy) and a new
    tail starts. A view handed out of a tail never changes, because later
    writes only land past it.
    """

    def __init__(self, dtypes: dict[str, Any]) -> None:
        self._dtypes = dtypes
        self._sealed: dict[str, np.ndarray] = {}  # exported names -> blocks
        self._blocks = 0
        self._tail = {name: np.empty(0, dtype) for name, dtype in dtypes.items()}
        self._rows = 0  # filled rows of the tail

    def extend(self, values: dict[str, np.ndarray]) -> None:
        """Append rows given as one array per column."""
        count = len(next(iter(values.values())))
        done = 0
        while done < count:
            take = min(count - done, HISTORY_BLOCK_ROWS - self._rows)
            end = self._rows + take
            for name, buf in self._tail.items():
                if end > buf.shape[0]:
                    grown = np.empty(
                        min(max(end, 2 * buf.shape[0], 64), HISTORY_BLOCK_ROWS),
                        buf.dtype,
                    )
                    grown[: self._rows] = buf[: self._rows]
                    self._tail[name] = buf = grown
                buf[self._rows : end] = values[name][done : done + take]
            self._rows = end
            done += take
            if self._rows == HISTORY_BLOCK_ROWS:
                block = f"hist-{self._blocks:06d}"
                for name, buf in self._tail.items():
                    buf.setflags(write=False)
                    self._sealed[f"{block}{BLOCK_SEPARATOR}{name}"] = buf
                self._blocks += 1
                self._tail = {
                    name: np.empty(0, dtype) for name, dtype in self._dtypes.items()
                }
                self._rows = 0

    def export(self, arrays: dict[str, np.ndarray]) -> None:
        """Put the sealed blocks and a read-only view of the tail into *arrays*."""
        arrays.update(self._sealed)
        for name, buf in self._tail.items():
            view = buf[: self._rows]
            view.setflags(write=False)
            arrays[name] = view


class HistoryEncoder:
    """Columnar encoding of an append-only operation history, kept current.

    Holds the ``hist_*`` columns in sealed blocks plus an open tail and
    the categorical legends in first-seen order, and on each
    :meth:`encode` encodes only the records appended since the previous
    call. Prefix stability makes that exact: a record's codes never change
    once assigned. A replaced or truncated list is re-encoded from
    scratch, so the joined output always equals a fresh encoding of the
    history passed in.
    """

    _NUMERIC = (
        ("snapshot", np.int64),
        ("root", np.int64),
        ("elapsed", np.float64),
        ("expected", np.float64),
    )

    def __init__(self) -> None:
        self._cursor = _AppendCursor()
        self._columns: _BlockedColumns | None = None
        self._legends: dict[str, list[Any]] = {}
        self._index: dict[str, dict[Any, int]] = {}

    def encode(
        self, history: list[Any], arrays: dict[str, np.ndarray]
    ) -> dict[str, list[Any]]:
        """Put the ``hist_*`` columns of *history* into *arrays*; return legends.

        Each column arrives as its sealed blocks ``hist-<i>/hist_<field>``
        and its tail ``hist_<field>``, all read-only arrays that later
        appends never overwrite.
        """
        start = self._cursor.advance(history)
        if start == 0:
            # Fresh buffers: arrays handed out earlier must keep their content.
            dtypes = {f"hist_{name}": dtype for name, dtype in self._NUMERIC}
            dtypes.update({f"hist_{field}": np.int32 for field in _HISTORY_CATEGORICALS})
            self._columns = _BlockedColumns(dtypes)
            self._legends = {field: [] for field in _HISTORY_CATEGORICALS}
            self._index = {field: {} for field in _HISTORY_CATEGORICALS}
        new = history[start:]
        k = len(new)
        if k:
            values = {
                f"hist_{name}": np.fromiter(
                    (getattr(r, name) for r in new), dtype, count=k
                )
                for name, dtype in self._NUMERIC
            }
            for field in _HISTORY_CATEGORICALS:
                legend = self._legends[field]
                index = self._index[field]
                codes = []
                for record in new:
                    value = getattr(record, field)
                    if field == "decision":
                        value = value.value
                    code = index.get(value)
                    if code is None:
                        code = index[value] = len(legend)
                        legend.append(value)
                    codes.append(code)
                values[f"hist_{field}"] = np.array(codes, dtype=np.int32)
            self._columns.extend(values)
        self._columns.export(arrays)
        return {field: list(legend) for field, legend in self._legends.items()}


class FloatListEncoder:
    """An append-only sequence of floats (a list or an ``array('d')``) as a
    float64 column in sealed blocks plus a tail, extended by what was
    appended since the previous :meth:`encode` (the maintenance
    controller's deviation history)."""

    def __init__(self) -> None:
        self._cursor = _AppendCursor(key=float.hex)  # bit-exact, NaN included
        self._column: _BlockedColumns | None = None

    def encode(self, values: Sequence[float], arrays: dict[str, np.ndarray]) -> None:
        """Put *values* into *arrays* as the read-only float64 blocks
        ``hist-<i>/ctrl_deviations`` and the tail ``ctrl_deviations``."""
        start = self._cursor.advance(values)
        if start == 0:
            self._column = _BlockedColumns({"ctrl_deviations": np.float64})
        if len(values) > start:
            self._column.extend(
                {"ctrl_deviations": np.array(values[start:], dtype=np.float64)}
            )
        self._column.export(arrays)


def history_rows_from_state(
    arrays: dict[str, np.ndarray], legends: dict[str, list[Any]]
) -> list[dict[str, Any]]:
    """History as plain row dicts (the session rebuilds its own records)."""
    rows = []
    for i in range(arrays["hist_snapshot"].shape[0]):
        row: dict[str, Any] = {
            "snapshot": int(arrays["hist_snapshot"][i]),
            "root": int(arrays["hist_root"][i]),
            "elapsed": float(arrays["hist_elapsed"][i]),
            "expected": float(arrays["hist_expected"][i]),
        }
        for field in _HISTORY_CATEGORICALS:
            row[field] = legends[field][int(arrays[f"hist_{field}"][i])]
        rows.append(row)
    return rows


# -- full session state ----------------------------------------------------
def capture_session_state(
    session: Any,
) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """Everything a :class:`~repro.runtime.session.TraceSession` needs to resume.

    Returns ``(arrays, meta)`` ready for
    :func:`~repro.persistence.checkpoint.write_checkpoint`.
    """
    arrays: dict[str, np.ndarray] = {}
    stats = session.stats
    # Sessions keep their encoders across captures; others encode anew.
    history_encoder = getattr(session, "_history_encoder", None) or HistoryEncoder()
    deviation_encoder = (
        getattr(session, "_deviation_encoder", None) or FloatListEncoder()
    )
    resilience = session.resilience
    persistence = session.persistence
    meta: dict[str, Any] = {
        "schema": STATE_SCHEMA_VERSION,
        "config": {
            "nbytes": session.nbytes,
            "time_step": session.time_step,
            "threshold": session.controller.threshold,
            "consecutive": session.controller.consecutive,
            "calibration_cost": session.calibration_cost,
            **session.options.to_meta(),
            "faults_spec": session.faults_spec,
            "fault_seed": session.fault_seed,
            "resilience": None if resilience is None else asdict(resilience),
            "regime": (
                None
                if session.regime_detector is None
                else {
                    "name": session.regime_detector.name,
                    "params": session.regime_detector.params(),
                }
            ),
        },
        "trace": {
            # The trace is immutable for the session's lifetime; hashing its
            # ~MBs once (cached by the session) keeps checkpoints cheap.
            "sha256": (
                getattr(session, "_trace_sha", None) or trace_sha256(session.trace)
            ),
            "n_machines": session.trace.n_machines,
            "n_snapshots": session.trace.n_snapshots,
            "path": None if persistence is None else persistence.trace_path,
        },
        "cursor": session._cursor,
        "journal_seq": stats.operations,
        "stats": {
            "operations": stats.operations,
            "communication_seconds": stats.communication_seconds,
            "overhead_seconds": stats.overhead_seconds,
            "recalibrations": stats.recalibrations,
            "failed_recalibrations": stats.failed_recalibrations,
            "deferred_recalibrations": stats.deferred_recalibrations,
            "holdover_operations": stats.holdover_operations,
            "epochs": stats.epochs,
            "regime_shifts": stats.regime_shifts,
            "regime_spikes": stats.regime_spikes,
            "stream_updates": stats.stream_updates,
            "stream_fallbacks": stats.stream_fallbacks,
            "history_legends": history_encoder.encode(stats.history, arrays),
        },
        "controller": session.controller.state_dict(),
        "health": None if session.health is None else session.health.state_dict(),
        "regime_state": (
            None
            if session.regime_detector is None
            else session.regime_detector.state_dict()
        ),
        "instrumentation": session.instrumentation.state_dict(),
        "decomposition": _decomposition_to_state(session.decomposition, arrays),
        "stream": None,
    }
    # Streaming subspace state rides the (bit-exact) array channel so a
    # resumed session's folds are bit-identical to the captured one's.
    stream_state = session._engine.export_stream_state()
    if stream_state is not None:
        stream_arrays, stream_meta = stream_state_to_payload(stream_state)
        arrays.update(stream_arrays)
        meta["stream"] = stream_meta
    # The controller's deviation history can be long — it rides the array
    # channel rather than the JSON member (state_dict leaves it out).
    deviation_encoder.encode(session.controller.stats.deviations, arrays)
    arrays.update(session._engine.export_cache_arrays())
    return arrays, meta


def check_schema(meta: dict[str, Any], path: str) -> None:
    """Refuse checkpoints written by an incompatible state schema."""
    schema = meta.get("schema")
    if schema != STATE_SCHEMA_VERSION:
        raise CheckpointCorruption(
            f"{path}: unsupported session-state schema {schema!r} "
            f"(expected {STATE_SCHEMA_VERSION})"
        )
