"""Serializing full session state to checkpoint arrays + metadata.

The split follows the checkpoint container's two channels: everything
array-shaped (TP-window row cache, warm-start components, the decomposition
in service, the deviation history) goes into the numpy payload; everything
scalar or structured (config, cursor, counters, health machine, detector
state) goes into the JSON metadata. ``STATE_SCHEMA_VERSION`` guards the
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
from typing import Any

import numpy as np

from ..cloudsim.trace import CalibrationTrace
from ..core.decompose import Decomposition
from ..core.matrices import TCMatrix, TEMatrix
from ..core.metrics import StabilityReport
from ..core.result import SolverResult
from ..core.streaming import stream_state_to_payload
from ..errors import CheckpointCorruption

__all__ = [
    "STATE_SCHEMA_VERSION",
    "trace_sha256",
    "trace_to_arrays",
    "trace_from_arrays",
    "capture_session_state",
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
    sr = dec.solver_result
    meta: dict[str, Any] = {
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
        "solver_result": None,
    }
    if sr is not None:
        arrays["sr_low_rank"] = sr.low_rank
        arrays["sr_sparse"] = sr.sparse
        if sr.constant_row is not None:
            arrays["sr_constant_row"] = sr.constant_row
        meta["solver_result"] = {
            "rank": sr.rank,
            "iterations": sr.iterations,
            "converged": bool(sr.converged),
            "residual": sr.residual,
            "warm_started": bool(sr.warm_started),
            "has_constant_row": sr.constant_row is not None,
        }
    return meta


def decomposition_from_state(
    arrays: dict[str, np.ndarray], meta: dict[str, Any]
) -> Decomposition:
    """Re-materialize the decomposition in service from checkpoint state."""
    solver_result = None
    sr_meta = meta.get("solver_result")
    if sr_meta is not None:
        solver_result = SolverResult(
            low_rank=arrays["sr_low_rank"],
            sparse=arrays["sr_sparse"],
            rank=int(sr_meta["rank"]),
            iterations=int(sr_meta["iterations"]),
            converged=bool(sr_meta["converged"]),
            residual=float(sr_meta["residual"]),
            constant_row=(
                arrays["sr_constant_row"] if sr_meta["has_constant_row"] else None
            ),
            warm_started=bool(sr_meta["warm_started"]),
        )
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
        solver_result=solver_result,
    )


# -- engine row cache ------------------------------------------------------
def _engine_cache_to_arrays(
    cache: dict[int, tuple[np.ndarray, np.ndarray | None]],
    arrays: dict[str, np.ndarray],
) -> None:
    if not cache:
        return
    keys = np.array(list(cache.keys()), dtype=np.int64)
    rows = np.stack([row for row, _ in cache.values()])
    has_mask = np.array([m is not None for _, m in cache.values()], dtype=bool)
    arrays["cache_keys"] = keys
    arrays["cache_rows"] = rows
    arrays["cache_has_mask"] = has_mask
    if has_mask.any():
        full = np.ones(rows.shape[1], dtype=bool)
        arrays["cache_masks"] = np.stack(
            [full if m is None else m for _, m in cache.values()]
        )


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
# strings become int32 codes plus a small legend in the metadata. This
# keeps checkpoint cost flat as the session ages.
_HISTORY_CATEGORICALS = ("op", "decision", "health", "regime")


def _history_to_state(
    history: list[Any], arrays: dict[str, np.ndarray]
) -> dict[str, list[Any]]:
    n = len(history)
    arrays["hist_snapshot"] = np.fromiter(
        (r.snapshot for r in history), np.int64, count=n
    )
    arrays["hist_root"] = np.fromiter((r.root for r in history), np.int64, count=n)
    arrays["hist_elapsed"] = np.fromiter(
        (r.elapsed for r in history), np.float64, count=n
    )
    arrays["hist_expected"] = np.fromiter(
        (r.expected for r in history), np.float64, count=n
    )
    legends: dict[str, list[Any]] = {}
    for field in _HISTORY_CATEGORICALS:
        codes = np.empty(n, dtype=np.int32)
        legend: list[Any] = []
        index: dict[Any, int] = {}
        for i, record in enumerate(history):
            value = getattr(record, field)
            if field == "decision":
                value = value.value
            code = index.get(value)
            if code is None:
                code = index[value] = len(legend)
                legend.append(value)
            codes[i] = code
        arrays[f"hist_{field}"] = codes
        legends[field] = legend
    return legends


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
    resilience = session.resilience
    persistence = session.persistence
    meta: dict[str, Any] = {
        "schema": STATE_SCHEMA_VERSION,
        "config": {
            "nbytes": session.nbytes,
            "time_step": session.time_step,
            "threshold": session.controller.threshold,
            "consecutive": session.controller.consecutive,
            "solver": session.solver,
            "calibration_cost": session.calibration_cost,
            "warm_start": session._engine.warm_start,
            "svd_backend": session._engine.svd_backend,
            "mode": session.mode,
            # Knobs only exist in streaming mode (the engine rejects them
            # otherwise); None keeps batch checkpoints byte-compatible.
            "stream_tolerance": (
                session._engine.stream_config.tolerance
                if session.mode == "streaming"
                else None
            ),
            "stream_refresh_every": (
                session._engine.stream_config.refresh_every
                if session.mode == "streaming"
                else None
            ),
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
            "history_legends": _history_to_state(stats.history, arrays),
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
    # The controller's deviation history can be long — keep it in the array
    # channel rather than bloating the JSON member.
    deviations = meta["controller"].pop("deviations")
    arrays["ctrl_deviations"] = np.asarray(deviations, dtype=np.float64)
    _engine_cache_to_arrays(session._engine.export_cache(), arrays)
    return arrays, meta


def check_schema(meta: dict[str, Any], path: str) -> None:
    """Refuse checkpoints written by an incompatible state schema."""
    schema = meta.get("schema")
    if schema != STATE_SCHEMA_VERSION:
        raise CheckpointCorruption(
            f"{path}: unsupported session-state schema {schema!r} "
            f"(expected {STATE_SCHEMA_VERSION})"
        )
