"""The Algorithm-1 session over a replayed trace.

A :class:`TraceSession` walks a :class:`~repro.cloudsim.trace.CalibrationTrace`
forward in time. The first ``time_step`` snapshots are consumed as the
initial calibration; every subsequent operation is priced on the *live*
snapshot at the session's cursor while its tree/mapping is built from the
*current constant component*. After each operation the session compares the
expected time against the observed one and re-calibrates (from the trailing
window, charging the calibration overhead) when the relative deviation
crosses the threshold — exactly lines 4–9 of the paper's Algorithm 1.

Calibration goes through a :class:`~repro.core.engine.DecompositionEngine`:
TP-matrix rows are cached across overlapping windows and re-calibration
solves warm-start from the previous solution (pass ``warm_start=False`` for
the historical cold path). The engine's instrumentation — per-solve spans,
warm/cold and cache counters — is exposed as
:attr:`TraceSession.instrumentation`.

Two orthogonal hardening layers ride on the loop:

* **Crash safety** (``persistence=``): every operation is committed to a
  write-ahead journal *before* it executes and a full checkpoint of session
  state is written every ``checkpoint_every`` operations, so a SIGKILLed
  process resumes via :meth:`TraceSession.resume` — newest valid checkpoint
  plus deterministic re-execution of the journal tail — and converges to
  the same ``P_D`` as an uninterrupted run.
* **Regime detection** (``regime=``): a CUSUM change-point detector over
  per-snapshot residual norms distinguishes transient interference spikes
  (keep serving ``P_D`` — RPCA's sparse term absorbs them) from sustained
  regime shifts, which force a *cold* re-calibration that drops the
  warm-start chain.

The same class serves live substrates by first materializing their
measurements as a trace (see
:func:`~repro.experiments.netsim_support.calibrate_netsim_trace`).
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .._validation import check_nonnegative, check_positive
from ..calibration.overhead import calibration_overhead_seconds
from ..cloudsim.trace import CalibrationTrace
from ..collectives.exec_model import collective_time, weights_to_alphabeta
from ..collectives.fnf import fnf_tree
from ..collectives.trees import CommTree
from ..core.decompose import Decomposition
from ..core.engine import DecompositionEngine
from ..core.detectors import (
    DEFAULT_DETECTOR,
    CusumRegimeDetector,
    RegimeConfig,
    RegimeDetector,
    RegimeVerdict,
    build_detector,
)
from ..core.maintenance import (
    DegradedModeController,
    HealthState,
    HealthTransition,
    MaintenanceController,
    MaintenanceDecision,
    ResilienceConfig,
)
from ..core.solvers import solver_spec
from ..core.streaming import stream_state_from_payload, validate_mode
from ..errors import (
    CalibrationError,
    ConvergenceError,
    PersistenceError,
    ValidationError,
)
from ..faults import (
    CrashFault,
    FaultModel,
    FaultSchedule,
    inject_faults,
    parse_fault_spec,
)
from ..mapping.evaluate import bandwidth_from_weights, mapping_total_time
from ..mapping.greedy import MachineGraph, greedy_mapping
from ..mapping.taskgraph import TaskGraph
from ..observability import Instrumentation
from ..utils.seeding import spawn_rng
from ..persistence import (
    CheckpointStore,
    PersistenceConfig,
    SnapshotJournal,
    capture_session_state,
    decomposition_from_state,
    engine_cache_from_state,
    history_rows_from_state,
    journal_path,
    recover,
    trace_sha256,
)
from ..persistence.state import FloatListEncoder, HistoryEncoder

__all__ = [
    "OperationRecord",
    "OperationSpec",
    "SessionCapsule",
    "SessionStats",
    "TraceSession",
]


@dataclass(frozen=True, slots=True)
class OperationRecord:
    """One operation executed through the session."""

    op: str
    snapshot: int
    root: int
    elapsed: float
    expected: float
    decision: MaintenanceDecision
    health: str = HealthState.HEALTHY.value
    regime: str = RegimeVerdict.STABLE.value


@dataclass(frozen=True, slots=True)
class OperationSpec:
    """One operation an *external* driver asks a session to execute.

    The session's own methods (:meth:`TraceSession.broadcast`, ...) bundle
    deciding *what* to run with running it; a spec separates the two so a
    scheduler that owns the loop — the fleet scheduler ticking many
    sessions — can plan operations ahead of time, ship them across process
    boundaries (the dataclass is picklable) and feed them to
    :meth:`TraceSession.step` one batch at a time.
    """

    op: str = "broadcast"
    root: int = 0
    nbytes: float | None = None


@dataclass(frozen=True, slots=True)
class SessionCapsule:
    """Full session state as a picklable value (no files involved).

    The in-memory sibling of a checkpoint: the same ``(arrays, meta)``
    payload :func:`~repro.persistence.capture_session_state` produces,
    kept as plain numpy arrays + JSON-able metadata instead of being
    written to disk. It round-trips losslessly through ``pickle``, so a
    session can be suspended in one process and resumed bit-identically in
    another via :meth:`TraceSession.from_capsule` — the contract the fleet
    scheduler uses to migrate clusters between workers. A capsule is also
    directly writable as a checkpoint
    (:meth:`~repro.persistence.CheckpointStore.save` accepts its fields).
    """

    arrays: dict[str, np.ndarray]
    meta: dict[str, Any]

    @property
    def operations(self) -> int:
        """Operations the captured session had executed."""
        return int(self.meta["stats"]["operations"])

    @property
    def constant_row(self) -> np.ndarray:
        """The captured constant component ``P_D`` (representative row)."""
        return self.arrays["dec_row"]

    @property
    def norm_ne(self) -> float:
        """Captured ``Norm(N_E)``."""
        return float(self.meta["decomposition"]["report"]["norm_ne"])

    @property
    def verdict(self) -> str:
        """Captured stability verdict."""
        return str(self.meta["decomposition"]["report"]["verdict"])


@dataclass
class SessionStats:
    """Aggregate accounting of a session's lifetime.

    ``epochs`` counts how many times the replay cursor wrapped past the end
    of the trace back to the evaluation-window start — i.e. how many times
    the finite trace was reused. Long-running replays report it so "1000
    operations" can be read as "the 20-snapshot trace replayed 50 times"
    rather than mistaken for 1000 fresh measurements.
    """

    operations: int = 0
    communication_seconds: float = 0.0
    overhead_seconds: float = 0.0
    recalibrations: int = 0
    failed_recalibrations: int = 0
    deferred_recalibrations: int = 0
    holdover_operations: int = 0
    epochs: int = 0
    regime_shifts: int = 0
    regime_spikes: int = 0
    stream_updates: int = 0
    stream_fallbacks: int = 0
    history: list[OperationRecord] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return self.communication_seconds + self.overhead_seconds

    @property
    def average_total_seconds(self) -> float:
        return self.total_seconds / self.operations if self.operations else 0.0


class _ServingPlan:
    """What operations derive from one ``P_D``, memoized until it changes.

    Between re-calibrations every tree, mapping and expected time comes from
    the same constant component (paper Algorithm 1), so they are built on
    first use and reused: one FNF tree per root, one α-β pair per message
    size, one expected time per ``(op, root, nbytes)`` and the mapper's
    machine graph. A plan is tied to the decomposition object it was
    built from; the session builds a new one as soon as a different
    decomposition is in service. It is derived state and is never captured.
    """

    def __init__(self, decomposition: Decomposition) -> None:
        self.decomposition = decomposition
        # Validated, zero-diagonal and read-only (a PerformanceMatrix's).
        self.weights = decomposition.performance_matrix().weights
        self._trees: dict[int, CommTree] = {}
        self._alphabeta: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self._expected: dict[tuple[str, int, float], float] = {}
        self._machines: MachineGraph | None = None

    def tree(self, root: int) -> CommTree:
        tree = self._trees.get(root)
        if tree is None:
            tree = self._trees[root] = fnf_tree(self.weights, root)
        return tree

    def alphabeta(self, nbytes: float) -> tuple[np.ndarray, np.ndarray]:
        pair = self._alphabeta.get(nbytes)
        if pair is None:
            pair = self._alphabeta[nbytes] = weights_to_alphabeta(self.weights, nbytes)
        return pair

    def expected(self, op: str, root: int, nbytes: float) -> float:
        """Time of *op* on its FNF tree, priced on ``P_D`` itself."""
        key = (op, root, nbytes)
        t = self._expected.get(key)
        if t is None:
            ea, eb = self.alphabeta(nbytes)
            t = collective_time(op, self.tree(root), ea, eb, nbytes)
            self._expected[key] = t
        return t

    def machines(self) -> MachineGraph:
        """The mapper's machine graph (symmetrized bandwidth and heft)."""
        if self._machines is None:
            self._machines = MachineGraph.from_bandwidth(
                bandwidth_from_weights(self.weights)
            )
        return self._machines


class TraceSession:
    """Adaptive network-aware optimization over a replayed trace.

    Parameters
    ----------
    trace:
        The network ground truth, walked forward one snapshot per operation
        (wrapping around at the end).
    nbytes:
        Default message size for calibration weights and collectives.
    time_step:
        Calibration window length (paper default 10).
    threshold:
        Maintenance threshold (paper default 1.0).
    consecutive:
        Consecutive above-threshold observations required before a
        re-calibration fires (default 1, the paper's immediate rule).
        Use 2 to debounce one-off interference spikes when individual
        observations are single collectives rather than whole runs.
    solver:
        RPCA backend.
    calibration_cost:
        Seconds charged per (re-)calibration; defaults to the Fig-4 model.
    warm_start:
        Warm-start re-calibration solves from the previous window's solution
        (default on; only solvers that support it — APG/IALM — are affected).
        Disable to reproduce the historical cold-solve path bit for bit.
    svd_backend:
        SVD kernel for the solver's singular value thresholding — one of
        :data:`repro.core.kernels.SVD_BACKENDS` (default ``"exact"``, the
        historical bit-identical path). Forwarded to the session's
        :class:`~repro.core.engine.DecompositionEngine`, which keeps the
        adaptive rank-prediction state across re-calibrations.
    mode:
        ``"batch"`` (default) — the historical Algorithm-1 loop: full
        window re-solves when the maintenance controller fires.
        ``"streaming"`` — the session is a true streaming consumer: every
        operation folds its snapshot into the decomposition in O(row) via
        the engine's :class:`~repro.core.streaming.StreamingDecomposer`
        (no calibration overhead charged), and only regime SHIFTs, rank
        growth past the predictor's bound, drift past ``stream_tolerance``
        or masked snapshots fall back to a certified cold batch solve.
    stream_tolerance:
        Streaming drift ceiling (``mode="streaming"`` only); defaults to
        :class:`~repro.core.streaming.StreamingConfig`'s.
    stream_refresh_every:
        Streaming re-orthonormalization cadence in folds
        (``mode="streaming"`` only).
    instrumentation:
        Observability sink shared with the session's
        :class:`~repro.core.engine.DecompositionEngine`; a fresh one is
        created if omitted (read it back via :attr:`instrumentation`).
    faults:
        Fault models to inject into the *calibration view* of the trace — a
        list of :class:`~repro.faults.FaultModel` or a spec string for
        :func:`~repro.faults.parse_fault_spec` (e.g.
        ``"probe_loss=0.1,vm_outage=3:12:2"`` or ``"harsh"``). Faults only
        affect what calibration observes; operations are still priced on
        the ground-truth trace (a lost probe does not slow the network).
        Enables degraded-mode maintenance (see *resilience*).
        :class:`~repro.faults.CrashFault` models in the list arm a
        process-level SIGKILL instead of touching measurements.
    fault_seed:
        Seed for fault materialization. Drawn fresh (and remembered, so a
        resumed session reproduces the identical fault schedule) when
        omitted and faults are present.
    resilience:
        :class:`~repro.core.maintenance.ResilienceConfig` controlling
        snapshot-completeness thresholds, re-calibration backoff and the
        HEALTHY → DEGRADED → HOLDOVER health machine. Defaults to the
        standard config when measurement *faults* are given, ``None``
        (strict historical behavior: calibration failures propagate)
        otherwise.
    persistence:
        A :class:`~repro.persistence.PersistenceConfig` (or a bare
        directory) enabling crash safety: operations are write-ahead
        journaled and checkpoints are written every
        ``checkpoint_every`` operations. The directory must not already
        hold another session's state — use :meth:`resume` for that.
    regime:
        Enable online regime-shift detection: the name of a registered
        detector (see :func:`repro.core.detectors.detector_names` —
        ``"cusum"``, ``"signature"``, ``"noise-robust"``, ``"drift"``),
        ``True`` for the default CUSUM detector, or a
        :class:`~repro.core.detectors.RegimeConfig` (the historical CUSUM
        spelling). A detected SHIFT forces a cold re-calibration
        (warm-start chain dropped, backoff bypassed); SPIKEs are counted
        but keep ``P_D`` in service.
    regime_params:
        Config overrides for the named detector (keyword arguments of its
        config dataclass, e.g. ``{"decision": 6.0}``). Requires *regime*.
    crash_after:
        Arm a :class:`~repro.faults.CrashFault` at this operation index —
        shorthand for putting one in *faults*, used by the chaos harness.
    """

    # Derived from ``_decomposition`` on first use; see _serving_plan().
    _plan: _ServingPlan | None = None

    def __init__(
        self,
        trace: CalibrationTrace,
        *,
        nbytes: float = 8.0 * 1024 * 1024,
        time_step: int = 10,
        threshold: float = 1.0,
        consecutive: int = 1,
        solver: str = "apg",
        calibration_cost: float | None = None,
        warm_start: bool = True,
        svd_backend: str = "exact",
        mode: str = "batch",
        stream_tolerance: float | None = None,
        stream_refresh_every: int | None = None,
        instrumentation: Instrumentation | None = None,
        faults: list[FaultModel] | tuple[FaultModel, ...] | str | None = None,
        fault_seed: int | None = None,
        resilience: ResilienceConfig | None = None,
        persistence: PersistenceConfig | str | os.PathLike | None = None,
        regime: RegimeConfig | str | bool | None = None,
        regime_params: dict[str, Any] | None = None,
        crash_after: int | None = None,
    ) -> None:
        if trace.n_snapshots <= time_step:
            raise ValidationError(
                "trace too short: need more snapshots than the time step"
            )
        check_positive(nbytes, "nbytes")
        self.trace = trace
        self.nbytes = float(nbytes)
        self.time_step = int(time_step)
        self.solver = solver
        self.svd_backend = svd_backend
        self.mode = validate_mode(mode)
        self.controller = MaintenanceController(
            threshold=threshold, consecutive=consecutive
        )
        self.calibration_cost = (
            calibration_cost
            if calibration_cost is not None
            else calibration_overhead_seconds(trace.n_machines, time_step)
        )
        check_nonnegative(self.calibration_cost, "calibration_cost")

        # Fault view. The seed is resolved (and remembered) here so a
        # resumed session re-materializes the identical schedule.
        self.faults_spec = faults if isinstance(faults, str) else None
        if faults is not None and fault_seed is None:
            fault_seed = int(spawn_rng(None).integers(0, 2**31 - 1))
        self.fault_seed = None if fault_seed is None else int(fault_seed)
        calibration_view, self.fault_schedule, crash_models = (
            self._build_fault_view(trace, faults, self.fault_seed)
        )
        if crash_after is not None:
            crash_models = crash_models + (CrashFault(at_operation=crash_after),)
        self._crash_models = crash_models
        if self.fault_schedule is not None and resilience is None:
            resilience = ResilienceConfig()
        self.resilience = resilience
        self.health: DegradedModeController | None = (
            DegradedModeController(resilience) if resilience is not None else None
        )

        self._engine = DecompositionEngine(
            calibration_view,
            nbytes=self.nbytes,
            time_step=self.time_step,
            solver=solver,
            warm_start=warm_start,
            svd_backend=svd_backend,
            mode=self.mode,
            stream_tolerance=stream_tolerance,
            stream_refresh_every=stream_refresh_every,
            instrumentation=(
                instrumentation
                if instrumentation is not None
                else Instrumentation("session")
            ),
            **self._engine_kwargs(resilience, solver),
        )
        self.regime_detector: RegimeDetector | None = (
            self._build_regime_detector(regime, regime_params)
        )

        self.stats = SessionStats()
        self._history_encoder = HistoryEncoder()
        self._deviation_encoder = FloatListEncoder()
        self._trace_sha = trace_sha256(trace)  # hashed once, reused per checkpoint
        self._cursor = self.time_step  # next live snapshot
        self._decomposition: Decomposition | None = None
        self._replaying = False
        self._journal: SnapshotJournal | None = None
        self._store: CheckpointStore | None = None
        # The session cannot start without one good constant component, so
        # the initial calibration is not fault-tolerant: a failure here
        # propagates even in resilient mode (pick fault schedules, window
        # position or thresholds that let the session boot).
        self._calibrate(end=self.time_step, charge=True)
        if self.health is not None:
            self.health.record_success()

        self.persistence = self._coerce_persistence(persistence)
        if self.persistence is not None:
            self._attach_persistence(self.persistence, fresh=True)
            self.checkpoint()  # checkpoint 0: the booted state

    # -- construction helpers ----------------------------------------------
    @staticmethod
    def _build_regime_detector(
        regime: RegimeConfig | str | bool | None,
        params: dict[str, Any] | None,
    ) -> RegimeDetector | None:
        """Resolve the ``regime=`` argument against the detector registry.

        ``None``/``False`` disable detection; ``True`` is the default
        detector; a string is a registered name (built with *params*); a
        :class:`~repro.core.detectors.RegimeConfig` is the historical CUSUM
        spelling (mutually exclusive with *params* — the config already
        carries them).
        """
        if regime is None or regime is False:
            if params:
                raise ValidationError(
                    "regime_params given without a regime detector; "
                    "pass regime=<detector name> as well"
                )
            return None
        if isinstance(regime, RegimeConfig):
            if params:
                raise ValidationError(
                    "pass detector parameters either as a RegimeConfig or "
                    "as regime_params, not both"
                )
            return CusumRegimeDetector(regime)
        if regime is True:
            return build_detector(DEFAULT_DETECTOR, params)
        if isinstance(regime, str):
            return build_detector(regime, params)
        raise ValidationError(
            f"regime must be a detector name, True, or a RegimeConfig; "
            f"got {regime!r}"
        )

    @staticmethod
    def _coerce_persistence(
        persistence: PersistenceConfig | str | os.PathLike | None,
    ) -> PersistenceConfig | None:
        if persistence is None or isinstance(persistence, PersistenceConfig):
            return persistence
        return PersistenceConfig(directory=os.fspath(persistence))

    @staticmethod
    def _build_fault_view(
        trace: CalibrationTrace,
        faults: list[FaultModel] | tuple[FaultModel, ...] | str | None,
        seed: int | None,
    ) -> tuple[CalibrationTrace, FaultSchedule | None, tuple[CrashFault, ...]]:
        """Split fault models into the measurement plane and the crash plane.

        Crash models are filtered out *before* injection so a spec with and
        without ``crash=`` tokens yields bit-identical measurement
        schedules — the property the kill-and-recover parity check rests on.
        """
        if faults is None:
            return trace, None, ()
        models = parse_fault_spec(faults) if isinstance(faults, str) else list(faults)
        crash = tuple(m for m in models if isinstance(m, CrashFault))
        measurement = [m for m in models if not isinstance(m, CrashFault)]
        if not measurement:
            return trace, None, crash
        injected = inject_faults(trace, measurement, seed=seed)
        return injected.trace, injected.schedule, crash

    @staticmethod
    def _engine_kwargs(
        resilience: ResilienceConfig | None, solver: str
    ) -> dict[str, Any]:
        kwargs: dict[str, Any] = {}
        if resilience is not None:
            kwargs["min_snapshot_observed"] = resilience.min_snapshot_observed
            kwargs["min_window_observed"] = resilience.min_window_observed
            spec = solver_spec(solver)
            if resilience.strict_convergence and (
                spec.accepts_any_kwargs or "raise_on_fail" in spec.accepted_kwargs
            ):
                kwargs["raise_on_fail"] = True
        return kwargs

    def _attach_persistence(self, config: PersistenceConfig, *, fresh: bool) -> None:
        directory = os.fspath(config.directory)
        os.makedirs(directory, exist_ok=True)
        store = CheckpointStore(
            directory, keep=config.keep_checkpoints, fsync=config.fsync
        )
        jpath = journal_path(directory)
        if fresh:
            # An empty (header-only) journal is not prior state — a fresh
            # session may have died between creating it and checkpoint 0.
            occupied = bool(store._paths()) or (
                os.path.exists(jpath) and SnapshotJournal.scan(jpath).records
            )
            if occupied:
                raise PersistenceError(
                    f"{directory!r} already holds session state; "
                    "use TraceSession.resume() to continue it"
                )
        self._store = store
        self._journal = SnapshotJournal(jpath, fsync=config.fsync)

    # -- state ------------------------------------------------------------
    @property
    def decomposition(self) -> Decomposition:
        assert self._decomposition is not None
        return self._decomposition

    @property
    def norm_ne(self) -> float:
        """Current ``Norm(N_E)`` — the effectiveness predictor."""
        return self.decomposition.norm_ne

    @property
    def verdict(self) -> str:
        return self.decomposition.report.verdict

    def weight_matrix(self) -> np.ndarray:
        """The current constant-component weight matrix (a fresh copy)."""
        return self._serving_plan().weights.copy()

    @property
    def instrumentation(self) -> Instrumentation:
        """Counters/timers/solve spans of this session's engine."""
        return self._engine.instrumentation

    @property
    def health_state(self) -> HealthState:
        """Current calibration-plane health (HEALTHY without resilience)."""
        return self.health.state if self.health is not None else HealthState.HEALTHY

    @property
    def health_transitions(self) -> list[HealthTransition]:
        """Recorded health state machine edges (empty without resilience)."""
        return list(self.health.transitions) if self.health is not None else []

    @property
    def staleness(self) -> int:
        """Operations run on the current constant component since its solve."""
        return self.health.staleness if self.health is not None else 0

    @property
    def fault_events(self):
        """Materialized fault events, if faults were injected."""
        return self.fault_schedule.events if self.fault_schedule is not None else ()

    # -- persistence --------------------------------------------------------
    def checkpoint(self) -> str | None:
        """Write a full checkpoint now; returns its path (None if disabled)."""
        if self._store is None:
            return None
        arrays, meta = capture_session_state(self)
        path = self._store.save(arrays, meta)
        self.instrumentation.count("session.checkpoint.written")
        if self._store.segment_written is not None:
            self.instrumentation.count(
                "session.checkpoint.segment_written"
                if self._store.segment_written
                else "session.checkpoint.segment_reused"
            )
        return path

    def close(self) -> None:
        """Flush and release persistence resources (idempotent)."""
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def _commit(self, record: dict[str, Any]) -> None:
        """Write-ahead commit of one operation (no-op when not persisting).

        The append happens *before* the operation executes, so after a crash
        the operation either replays in full from the journal or never
        happened — the recovery protocol's atomicity unit.
        """
        if self._journal is not None and not self._replaying:
            self._journal.append_json(record)

    def _check_crash(self) -> None:
        """Fire any armed crash fault scheduled for the upcoming operation.

        Checked after the journal commit and before execution: the record of
        the operation the process died inside is on disk and will replay on
        recovery. Suppressed during replay — a crash is a process-lifetime
        event, not part of the deterministic history.
        """
        if self._replaying:
            return
        for model in self._crash_models:
            if model.fires(self.stats.operations):
                model.trigger()

    def _maybe_checkpoint(self) -> None:
        if self._store is None or self._replaying or self.persistence is None:
            return
        if self.stats.operations % int(self.persistence.checkpoint_every) == 0:
            self.checkpoint()

    # -- internals ----------------------------------------------------------
    def _serving_plan(self) -> _ServingPlan:
        """The memoized plan of the decomposition now in service.

        Checked by identity on every operation, so anything that replaces
        ``_decomposition`` (re-calibration, stream fold, rebuild) retires
        the old plan without further bookkeeping.
        """
        plan = self._plan
        if plan is None or plan.decomposition is not self._decomposition:
            plan = self._plan = _ServingPlan(self.decomposition)
        return plan

    def _calibrate(self, end: int, *, charge: bool) -> None:
        self._decomposition = self._engine.calibrate(end)
        if charge:
            self.stats.overhead_seconds += self.calibration_cost

    def _request_recalibration(self, end: int) -> None:
        """Algorithm-1 re-calibration, degraded-mode aware.

        Without a health controller this is the historical strict path: a
        calibration failure propagates to the caller. With one, a failed
        attempt (not enough probes answered, solver budget exhausted) keeps
        the last good constant component in service — HOLDOVER — and backs
        off exponentially before the next attempt; a deferred request
        (still inside backoff) is counted but does not re-measure.
        """
        if self.health is None:
            self._calibrate(end=end, charge=True)
            self.stats.recalibrations += 1
            return
        if not self.health.should_attempt():
            self.stats.deferred_recalibrations += 1
            self.instrumentation.count("session.recalibration.deferred")
            return
        try:
            self._calibrate(end=end, charge=True)
        except (CalibrationError, ConvergenceError) as exc:
            self.stats.failed_recalibrations += 1
            self.instrumentation.count("session.recalibration.failed")
            self.health.record_failure(exc)
            # The engine may have been left warm-seeded by a failed solve's
            # predecessor; the last *good* decomposition stays in service.
            return
        self.stats.recalibrations += 1
        self.instrumentation.count("session.recalibration.ok")
        self.health.record_success()

    def _force_cold_recalibration(self, end: int) -> None:
        """Regime shift: the constant component itself has moved.

        Drop the warm-start chain (the old solution would pull the solver
        toward the dead regime) and re-solve cold, bypassing retry backoff —
        holding over a stale ``P_D`` is exactly wrong when the change is
        structural rather than a measurement fault.
        """
        self._engine.reset_warm_state()
        self.controller.reset()
        if self.mode == "streaming":
            # A SHIFT is a certified-fallback trigger: the reset above
            # dropped the streaming subspace and the cold solve below
            # reseeds it.
            self.stats.stream_fallbacks += 1
            self.instrumentation.count("kernel.stream.fallbacks")
            self.instrumentation.count("kernel.stream.fallback_shift")
        self.instrumentation.count("session.regime.cold_recalibration")
        # Unprefixed twin of the counter above: fleet reports merge worker
        # instrumentation under the "regime.*" namespace.
        self.instrumentation.count("regime.forced_recalibrations")
        try:
            self._calibrate(end=end, charge=True)
        except (CalibrationError, ConvergenceError) as exc:
            self.stats.failed_recalibrations += 1
            self.instrumentation.count("session.recalibration.failed")
            if self.health is None:
                raise
            self.health.record_failure(exc)
            return
        self.stats.recalibrations += 1
        self.instrumentation.count("session.recalibration.ok")
        if self.health is not None:
            self.health.record_success()

    def _observe_regime(self, k: int) -> str:
        """Feed snapshot *k*'s residual to the detector; act on the verdict.

        Must run before any re-calibration at this operation: the residual
        is measured against the constant component *in service*, and a SHIFT
        pre-empts the ordinary threshold-triggered re-calibration (the cold
        path subsumes it).
        """
        if self.regime_detector is None:
            return RegimeVerdict.STABLE.value
        residual = self._engine.snapshot_residual(k)
        verdict = self.regime_detector.observe(residual)
        if verdict is RegimeVerdict.SHIFT:
            self.stats.regime_shifts += 1
            self.instrumentation.count("session.regime.shift")
            self.instrumentation.count("regime.shift")
            self._force_cold_recalibration(end=k + 1)
        elif verdict is RegimeVerdict.SPIKE:
            self.stats.regime_spikes += 1
            self.instrumentation.count("session.regime.spike")
            self.instrumentation.count("regime.spike")
        return verdict.value

    def _consume_stream(self, k: int) -> None:
        """Serve operation *k*'s window slide through the streaming path.

        A successful fold replaces the decomposition in service at O(row)
        cost — no calibration overhead is charged, that is the point of the
        streaming mode. A fold fallback (rank growth, drift, masked row),
        or any slide the streaming state cannot cover (unseeded stream,
        trace wraparound), routes through the ordinary re-calibration
        machinery: overhead charged, health/backoff respected, and the cold
        solve reseeds the stream.
        """
        end = k + 1
        if self._engine.stream_plan(end) == "fold":
            dec, _reason = self._engine.stream_fold(end)
            if dec is not None:
                self._decomposition = dec
                self.stats.stream_updates += 1
                return
            self.stats.stream_fallbacks += 1
        self._request_recalibration(end=end)

    def _advance(self) -> int:
        k = self._cursor
        self._cursor += 1
        if self._cursor >= self.trace.n_snapshots:
            self._cursor = self.time_step  # wrap the evaluation window
            self.stats.epochs += 1
        if self.health is not None:
            self.health.tick()
            if not self.health.healthy:
                self.stats.holdover_operations += 1
        return k

    # -- operations -----------------------------------------------------------
    def run_collective(
        self,
        op: str,
        *,
        root: int = 0,
        nbytes: float | None = None,
        machines: list[int] | np.ndarray | None = None,
    ) -> OperationRecord:
        """Run one collective; returns its record after maintenance feedback.

        *machines* restricts the operation to a virtual sub-cluster
        ``C' ⊆ C`` (paper Algorithm 1 line 3): the constant component and
        the live snapshot are both restricted to those machines, and *root*
        indexes into the sub-cluster.
        """
        size = self.nbytes if nbytes is None else float(nbytes)
        check_positive(size, "nbytes")
        idx: np.ndarray | None = None
        if machines is not None:
            idx = np.asarray(machines, dtype=np.intp)
            if idx.size < 2 or len(set(idx.tolist())) != idx.size:
                raise ValidationError("machines must be >= 2 distinct indices")
            if idx.min() < 0 or idx.max() >= self.trace.n_machines:
                raise ValidationError("machine index out of range")
        self._commit(
            {
                "kind": "collective",
                "op": op,
                "root": int(root),
                "nbytes": size,
                "machines": None if idx is None else idx.tolist(),
            }
        )
        self._check_crash()
        k = self._advance()
        plan = self._serving_plan()
        live_alpha, live_beta = self.trace.alpha[k], self.trace.beta[k]
        if idx is None:
            expected = plan.expected(op, int(root), size)
            tree = plan.tree(int(root))
        else:
            # Sub-cluster trees are built per operation: the machine sets a
            # caller picks are open-ended, so they are not memoized.
            sel = np.ix_(idx, idx)
            weights = plan.weights[sel]
            np.fill_diagonal(weights, 0.0)
            live_alpha = live_alpha[sel]
            live_beta = live_beta[sel]
            tree = fnf_tree(weights, root)
            ea, eb = weights_to_alphabeta(weights, size)
            expected = collective_time(op, tree, ea, eb, size)
        elapsed = collective_time(op, tree, live_alpha, live_beta, size)

        decision = self.controller.observe(expected, elapsed)
        regime = self._observe_regime(k)
        if self.mode == "streaming":
            # A SHIFT already forced the cold reseed inside _observe_regime.
            if regime != RegimeVerdict.SHIFT.value:
                self._consume_stream(k)
        elif (
            regime != RegimeVerdict.SHIFT.value
            and decision is MaintenanceDecision.RECALIBRATE
        ):
            self._request_recalibration(end=k + 1)

        record = OperationRecord(
            op=op, snapshot=k, root=int(root), elapsed=elapsed,
            expected=expected, decision=decision,
            health=self.health_state.value, regime=regime,
        )
        self.stats.operations += 1
        self.stats.communication_seconds += elapsed
        self.stats.history.append(record)
        self._maybe_checkpoint()
        return record

    def step(self, spec: OperationSpec | None = None) -> OperationRecord:
        """Execute one externally-planned operation (non-owning driver mode).

        The inversion of the session's usual control flow: the caller — a
        fleet scheduler, a replay harness — owns the loop and feeds specs;
        the session only executes and maintains. Equivalent to calling
        :meth:`run_collective` with the spec's fields.
        """
        spec = spec if spec is not None else OperationSpec()
        return self.run_collective(spec.op, root=spec.root, nbytes=spec.nbytes)

    def broadcast(self, *, root: int = 0, nbytes: float | None = None) -> OperationRecord:
        return self.run_collective("broadcast", root=root, nbytes=nbytes)

    def scatter(self, *, root: int = 0, block_bytes: float | None = None) -> OperationRecord:
        return self.run_collective("scatter", root=root, nbytes=block_bytes)

    def reduce(self, *, root: int = 0, nbytes: float | None = None) -> OperationRecord:
        return self.run_collective("reduce", root=root, nbytes=nbytes)

    def gather(self, *, root: int = 0, block_bytes: float | None = None) -> OperationRecord:
        return self.run_collective("gather", root=root, nbytes=block_bytes)

    def communicator(self, snapshot: int | None = None):
        """An MPI-style :class:`~repro.mpisim.SimComm` bound to this session.

        The communicator's live network is the trace snapshot at the
        session's cursor (or *snapshot* if given) and its trees come from
        the current constant component — i.e. programs written against it
        run network-aware without knowing about RPCA at all. The
        communicator is a snapshot view: it does not advance the session's
        cursor or feed the maintenance loop.
        """
        from ..mpisim.comm import SimComm

        k = self._cursor if snapshot is None else int(snapshot)
        if not 0 <= k < self.trace.n_snapshots:
            raise ValidationError(f"snapshot {k} out of range")
        return SimComm(
            self.trace.alpha[k], self.trace.beta[k], weights=self.weight_matrix()
        )

    def map_tasks(self, graph: TaskGraph) -> tuple[np.ndarray, float]:
        """Map *graph* greedily on the constant component; price it live.

        Returns ``(mapping, elapsed_seconds)``. Mapping operations also feed
        the maintenance loop (their expected cost comes from the estimate).
        """
        if graph.n_tasks > self.trace.n_machines:
            raise ValidationError("task graph larger than the cluster")
        self._commit({"kind": "mapping", "volumes": graph.volumes.tolist()})
        self._check_crash()
        k = self._advance()
        plan = self._serving_plan()
        mapping = greedy_mapping(graph, plan.machines())
        ea, eb = plan.alphabeta(self.nbytes)
        expected = mapping_total_time(graph, mapping, ea, eb)
        elapsed = mapping_total_time(
            graph, mapping, self.trace.alpha[k], self.trace.beta[k]
        )
        decision = self.controller.observe(expected, elapsed)
        regime = self._observe_regime(k)
        if self.mode == "streaming":
            if regime != RegimeVerdict.SHIFT.value:
                self._consume_stream(k)
        elif (
            regime != RegimeVerdict.SHIFT.value
            and decision is MaintenanceDecision.RECALIBRATE
        ):
            self._request_recalibration(end=k + 1)
        self.stats.operations += 1
        self.stats.communication_seconds += elapsed
        self.stats.history.append(
            OperationRecord(
                op="mapping", snapshot=k, root=-1, elapsed=elapsed,
                expected=expected, decision=decision,
                health=self.health_state.value, regime=regime,
            )
        )
        self._maybe_checkpoint()
        return mapping, elapsed

    # -- suspension (in-memory) ---------------------------------------------
    def capture_capsule(self) -> SessionCapsule:
        """Capture full session state as a picklable :class:`SessionCapsule`."""
        arrays, meta = capture_session_state(self)
        return SessionCapsule(arrays=arrays, meta=meta)

    @classmethod
    def from_capsule(
        cls,
        trace: CalibrationTrace,
        capsule: SessionCapsule,
        *,
        instrumentation: Instrumentation | None = None,
        faults: list[FaultModel] | tuple[FaultModel, ...] | str | None = None,
        verify_trace: bool = False,
    ) -> "TraceSession":
        """Resurrect a session from an in-memory capsule (no files, no replay).

        The process-migration counterpart of :meth:`resume`: state comes
        from a :class:`SessionCapsule` instead of a checkpoint directory and
        there is no journal tail to re-execute, so the rebuilt session is
        *exactly* the captured one — same cursor, same ``P_D``, same
        warm-start seed — and continues bit-identically. *trace* must be
        the same trace the captured session ran on (e.g. a shared-memory
        view of it); pass ``verify_trace=True`` to check its content hash
        against the captured one instead of trusting the caller — off by
        default because hashing the whole trace on every fleet batch would
        dwarf the work being resumed.
        """
        if verify_trace and trace_sha256(trace) != capsule.meta["trace"]["sha256"]:
            raise PersistenceError(
                "trace content does not match the captured session "
                "(sha256 mismatch) — resuming on a different trace would "
                "silently diverge"
            )
        return cls._rebuild(
            trace,
            capsule.arrays,
            capsule.meta,
            instrumentation=instrumentation,
            faults=faults,
        )

    # -- recovery -----------------------------------------------------------
    def _replay_record(self, record: dict[str, Any]) -> None:
        kind = record.get("kind")
        if kind == "collective":
            self.run_collective(
                record["op"],
                root=int(record["root"]),
                nbytes=float(record["nbytes"]),
                machines=record["machines"],
            )
        elif kind == "mapping":
            self.map_tasks(
                TaskGraph(volumes=np.asarray(record["volumes"], dtype=np.float64))
            )
        else:
            raise PersistenceError(f"unknown journal record kind {kind!r}")

    @classmethod
    def resume(
        cls,
        directory: str | os.PathLike,
        *,
        trace: CalibrationTrace | None = None,
        faults: list[FaultModel] | tuple[FaultModel, ...] | str | None = None,
        instrumentation: Instrumentation | None = None,
        persistence: PersistenceConfig | None = None,
        crash_after: int | None = None,
    ) -> "TraceSession":
        """Resurrect a crashed (or cleanly stopped) session from *directory*.

        Loads the newest checkpoint that passes verification (falling back
        to older ones past corruption), restores the full session state —
        engine row cache, warm-start chain, controllers, detector, stats,
        instrumentation — and deterministically re-executes the journal
        records committed after the checkpoint. The resumed session then
        continues exactly where the dead one would have been: same cursor,
        same ``P_D``, same warm-start seed.

        Parameters
        ----------
        directory:
            The persistence directory of the dead session.
        trace:
            The ground-truth trace. Loaded from the path recorded in the
            checkpoint when omitted; either way its content hash must match
            the checkpointed one.
        faults:
            Measurement-fault override. Defaults to the fault spec string
            recorded in the checkpoint (sessions built from model *lists*
            record no spec and need this argument). Crash models recorded
            in the spec are never re-armed — a crash belongs to the process
            that scheduled it, not to the history.
        instrumentation:
            Sink to restore the checkpointed counters/spans into; a fresh
            one is created if omitted.
        persistence:
            Settings for the *resumed* session's own checkpointing
            (cadence, retention, fsync). The journal and checkpoints always
            stay in *directory* — recovery continuity depends on it.
        crash_after:
            Arm a fresh :class:`~repro.faults.CrashFault` at this operation
            index (counted over the whole session lifetime, replayed
            operations included) — the chaos harness's repeated-kill knob.
        """
        directory = os.fspath(directory)
        state = recover(directory)
        meta = state.meta
        cfg = meta["config"]

        if trace is None:
            path = meta["trace"]["path"]
            if path is None:
                raise PersistenceError(
                    "checkpoint records no trace path; pass trace= explicitly"
                )
            from ..cloudsim.io import load_trace, load_trace_csv

            trace = (
                load_trace_csv(path)
                if str(path).lower().endswith(".csv")
                else load_trace(path)
            )
        trace_sha = trace_sha256(trace)
        if trace_sha != meta["trace"]["sha256"]:
            raise PersistenceError(
                "trace content does not match the checkpointed session "
                "(sha256 mismatch) — resuming on a different trace would "
                "silently diverge"
            )

        self = cls._rebuild(
            trace, state.arrays, meta, instrumentation=instrumentation, faults=faults
        )

        if persistence is None:
            persistence = PersistenceConfig(
                directory=directory, trace_path=meta["trace"]["path"]
            )
        elif os.path.abspath(os.fspath(persistence.directory)) != os.path.abspath(
            directory
        ):
            raise PersistenceError(
                "a resumed session must keep persisting into the directory "
                "it recovered from"
            )
        self.persistence = persistence
        self._crash_models = (
            (CrashFault(at_operation=crash_after),) if crash_after is not None else ()
        )
        self._store = CheckpointStore(
            directory, keep=persistence.keep_checkpoints, fsync=persistence.fsync
        )
        self._journal = None  # replay first; reattach in append mode after

        self._replaying = True
        try:
            for record in state.pending:
                self._replay_record(record)
        finally:
            self._replaying = False
        self._journal = SnapshotJournal(
            journal_path(directory), fsync=persistence.fsync
        )
        if self._journal.seq != self.stats.operations:
            raise PersistenceError(
                f"journal/state divergence after replay: journal at seq "
                f"{self._journal.seq}, session at {self.stats.operations} "
                "operations"
            )
        self.instrumentation.count("session.recovered")
        if state.fallbacks:
            self.instrumentation.count(
                "session.recovery.fallbacks", state.fallbacks
            )
        return self

    @classmethod
    def _rebuild(
        cls,
        trace: CalibrationTrace,
        arrays: dict[str, np.ndarray],
        meta: dict[str, Any],
        *,
        instrumentation: Instrumentation | None = None,
        faults: list[FaultModel] | tuple[FaultModel, ...] | str | None = None,
    ) -> "TraceSession":
        """Rebuild a session object from captured state (arrays + meta).

        Shared by :meth:`resume` (state from a checkpoint file; the caller
        then attaches persistence and replays the journal tail) and
        :meth:`from_capsule` (state from an in-memory capsule; nothing else
        to do). The rebuilt session has no persistence attached and no
        crash models armed.
        """
        cfg = meta["config"]
        self = cls.__new__(cls)
        self.trace = trace
        self._trace_sha = meta["trace"]["sha256"]
        self.nbytes = float(cfg["nbytes"])
        self.time_step = int(cfg["time_step"])
        self.solver = cfg["solver"]
        # Checkpoints from releases before the kernel layer lack the key.
        self.svd_backend = cfg.get("svd_backend", "exact")
        if self.svd_backend == "randomized":
            # The randomized sketch backend was retired; "auto" replaced it.
            warnings.warn(
                "this session was written with svd_backend='randomized', "
                "which no longer exists; it resumes with svd_backend='auto', "
                "so its re-calibrations no longer match the original run",
                RuntimeWarning,
                stacklevel=3,
            )
            self.svd_backend = "auto"
        # Older checkpoints may name an "elementwise_backend"; it is ignored.
        # Pre-streaming checkpoints lack the mode and knob keys.
        self.mode = cfg.get("mode", "batch")
        stream_tolerance = cfg.get("stream_tolerance")
        stream_refresh_every = cfg.get("stream_refresh_every")
        self.calibration_cost = float(cfg["calibration_cost"])
        self.controller = MaintenanceController(
            threshold=cfg["threshold"], consecutive=cfg["consecutive"]
        )
        ctrl_state = dict(meta["controller"])
        ctrl_state["deviations"] = arrays["ctrl_deviations"].tolist()
        self.controller.restore_state(ctrl_state)

        res_meta = cfg["resilience"]
        resilience = None if res_meta is None else ResilienceConfig(**res_meta)
        self.resilience = resilience
        self.health = (
            DegradedModeController(resilience) if resilience is not None else None
        )
        if self.health is not None and meta["health"] is not None:
            self.health.restore_state(meta["health"])

        self.faults_spec = cfg["faults_spec"]
        self.fault_seed = cfg["fault_seed"]
        fault_source = faults if faults is not None else self.faults_spec
        calibration_view, self.fault_schedule, _ = self._build_fault_view(
            trace, fault_source, self.fault_seed
        )
        self._crash_models = ()

        self._engine = DecompositionEngine(
            calibration_view,
            nbytes=self.nbytes,
            time_step=self.time_step,
            solver=self.solver,
            warm_start=bool(cfg["warm_start"]),
            svd_backend=self.svd_backend,
            mode=self.mode,
            stream_tolerance=stream_tolerance,
            stream_refresh_every=stream_refresh_every,
            instrumentation=(
                instrumentation
                if instrumentation is not None
                else Instrumentation("session")
            ),
            **self._engine_kwargs(resilience, self.solver),
        )
        self._engine.import_cache(engine_cache_from_state(arrays))
        self._engine.instrumentation.restore_state(meta["instrumentation"])
        dec = decomposition_from_state(arrays, meta["decomposition"])
        self._decomposition = dec
        self._engine.restore_warm_state(dec)
        stream_meta = meta.get("stream")
        if stream_meta is not None:
            self._engine.import_stream_state(
                stream_state_from_payload(arrays, stream_meta)
            )

        regime_cfg = cfg["regime"]
        if regime_cfg is None:
            self.regime_detector = None
        elif "name" in regime_cfg:
            self.regime_detector = build_detector(
                regime_cfg["name"], regime_cfg["params"]
            )
        else:
            # Pre-registry checkpoints stored bare CUSUM config fields.
            self.regime_detector = CusumRegimeDetector(RegimeConfig(**regime_cfg))
        if self.regime_detector is not None and meta["regime_state"] is not None:
            self.regime_detector.restore_state(meta["regime_state"])

        st = meta["stats"]
        self.stats = SessionStats(
            operations=int(st["operations"]),
            communication_seconds=float(st["communication_seconds"]),
            overhead_seconds=float(st["overhead_seconds"]),
            recalibrations=int(st["recalibrations"]),
            failed_recalibrations=int(st["failed_recalibrations"]),
            deferred_recalibrations=int(st["deferred_recalibrations"]),
            holdover_operations=int(st["holdover_operations"]),
            epochs=int(st["epochs"]),
            regime_shifts=int(st["regime_shifts"]),
            regime_spikes=int(st["regime_spikes"]),
            # Pre-streaming checkpoints lack the stream counters.
            stream_updates=int(st.get("stream_updates", 0)),
            stream_fallbacks=int(st.get("stream_fallbacks", 0)),
            history=[
                OperationRecord(
                    op=h["op"],
                    snapshot=h["snapshot"],
                    root=h["root"],
                    elapsed=h["elapsed"],
                    expected=h["expected"],
                    decision=MaintenanceDecision(h["decision"]),
                    health=h["health"],
                    regime=h["regime"],
                )
                for h in history_rows_from_state(arrays, st["history_legends"])
            ],
        )
        self._history_encoder = HistoryEncoder()
        self._deviation_encoder = FloatListEncoder()
        self._cursor = int(meta["cursor"])

        self.persistence = None
        self._store = None
        self._journal = None
        self._replaying = False
        return self
