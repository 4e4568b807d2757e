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
TP-matrix rows are cached across overlapping windows and every
re-calibration solves its window cold. The engine's instrumentation —
per-solve spans, solve and cache counters — is exposed as
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
  regime shifts, which force an immediate re-calibration.

The same class serves live substrates by first materializing their
measurements as a trace (see
:func:`~repro.experiments.netsim_support.calibrate_netsim_trace`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .._validation import as_square_matrix, check_nonnegative, check_positive
from ..calibration.overhead import calibration_overhead_seconds
from ..cloudsim.trace import CalibrationTrace
from ..collectives.exec_model import collective_time, weights_to_alphabeta
from ..collectives.fnf import FnfPicks, fnf_tree
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
from ..core.options import SolveOptions
from ..core.solvers import solver_spec
from ..core.streaming import stream_state_from_payload
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
from ..persistence.checkpoint import join_blocks
from ..persistence.journal import pack_float64, unpack_float64
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

    Trees also outlive their plan. A plan takes over its predecessor's
    last tree per root with the picks FNF made for it
    (:class:`~repro.collectives.fnf.FnfPicks`), and serves a kept tree
    again only when the new weights certify it, i.e. when ``fnf_tree``
    would provably return the same tree. A streamed ``P_D`` moves on every
    fold but its trees rarely change, so most re-plans cost one
    certificate per root instead of one FNF build.
    """

    def __init__(
        self, decomposition: Decomposition, previous: "_ServingPlan | None" = None
    ) -> None:
        self.decomposition = decomposition
        # Validated, zero-diagonal and read-only (a PerformanceMatrix's).
        self.weights = decomposition.performance_matrix().weights
        self._trees: dict[int, CommTree] = {}
        self._alphabeta: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self._expected: dict[tuple[str, int, float], float] = {}
        self._machines: MachineGraph | None = None
        # Root -> picks of the last tree built or certified for it, shared
        # along the chain of plans.
        self._kept: dict[int, FnfPicks] = {} if previous is None else previous._kept

    def tree(self, root: int) -> CommTree:
        tree = self._trees.get(root)
        if tree is None:
            kept = self._kept.get(root)
            if kept is not None and kept.certifies(self.weights, check_finite=False):
                tree = kept.tree
            else:
                tree = fnf_tree(self.weights, root)
                self._kept[root] = FnfPicks.of(tree)
            self._trees[root] = tree
        return tree

    def alphabeta(self, nbytes: float) -> tuple[np.ndarray, np.ndarray]:
        """``P_D`` as pure-bandwidth links: α is all zeros, so pricing on
        the pair skips the finiteness scan (``check_finite=False``)."""
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
            t = collective_time(
                op, self.tree(root), ea, eb, nbytes, check_finite=False
            )
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
    solver, mode, stream_tolerance, stream_refresh_every:
        The :class:`~repro.core.options.SolveOptions` of the session's
        re-calibrations (see there for each knob and how they combine),
        readable back as :attr:`options`. In ``mode="streaming"`` every
        operation folds its snapshot into the decomposition in O(row) (no
        calibration overhead charged), and only regime SHIFTs, rank growth,
        drift or masked snapshots fall back to a certified cold batch solve.
    calibration_cost:
        Seconds charged per (re-)calibration; defaults to the Fig-4 model.
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
        spelling). A detected SHIFT forces a re-calibration (streaming
        state dropped, backoff bypassed); SPIKEs are counted
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
    # Derived from ``trace`` on first use; see _live_snapshot().
    _checked_trace: CalibrationTrace | None = None
    _checked: bytearray

    def __init__(
        self,
        trace: CalibrationTrace,
        *,
        nbytes: float = 8.0 * 1024 * 1024,
        time_step: int = 10,
        threshold: float = 1.0,
        consecutive: int = 1,
        solver: str = SolveOptions.solver,
        calibration_cost: float | None = None,
        mode: str = SolveOptions.mode,
        stream_tolerance: float | None = SolveOptions.stream_tolerance,
        stream_refresh_every: int | None = SolveOptions.stream_refresh_every,
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
        options = SolveOptions(
            solver=solver,
            mode=mode,
            stream_tolerance=stream_tolerance,
            stream_refresh_every=stream_refresh_every,
        )
        if calibration_cost is None:
            calibration_cost = calibration_overhead_seconds(trace.n_machines, time_step)
        check_nonnegative(calibration_cost, "calibration_cost")
        # The seed is resolved (and remembered) here so a resumed session
        # re-materializes the identical schedule.
        if faults is not None and fault_seed is None:
            fault_seed = int(spawn_rng(None).integers(0, 2**31 - 1))
        crash_models = self._assemble(
            trace,
            nbytes=nbytes,
            time_step=time_step,
            threshold=threshold,
            consecutive=consecutive,
            calibration_cost=calibration_cost,
            options=options,
            faults=faults,
            faults_spec=faults if isinstance(faults, str) else None,
            fault_seed=fault_seed,
            resilience=resilience,
            regime_detector=self._build_regime_detector(regime, regime_params),
            instrumentation=instrumentation,
            trace_sha=trace_sha256(trace),  # hashed once, reused per checkpoint
        )
        if crash_after is not None:
            crash_models = crash_models + (CrashFault(at_operation=crash_after),)
        self._crash_models = crash_models
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

    def _assemble(
        self,
        trace: CalibrationTrace,
        *,
        nbytes: float,
        time_step: int,
        threshold: float,
        consecutive: int,
        calibration_cost: float,
        options: SolveOptions,
        faults: list[FaultModel] | tuple[FaultModel, ...] | str | None,
        faults_spec: str | None,
        fault_seed: int | None,
        resilience: ResilienceConfig | None,
        regime_detector: RegimeDetector | None,
        instrumentation: Instrumentation | None,
        trace_sha: str,
    ) -> tuple[CrashFault, ...]:
        """Lay out a session at its boot point, before any calibration.

        Shared by a new session (which then calibrates its first window)
        and a restored one (which then loads captured state over it). The
        session has no persistence attached; the fault view's crash models
        are returned for the caller to arm or drop.
        """
        self.trace = trace
        self.nbytes = float(nbytes)
        self.time_step = int(time_step)
        self.controller = MaintenanceController(
            threshold=threshold, consecutive=consecutive
        )
        self.calibration_cost = calibration_cost
        self.faults_spec = faults_spec
        self.fault_seed = None if fault_seed is None else int(fault_seed)
        calibration_view, self.fault_schedule, crash_models = (
            self._build_fault_view(trace, faults, self.fault_seed)
        )
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
            options=options,
            instrumentation=(
                instrumentation
                if instrumentation is not None
                else Instrumentation("session")
            ),
            **self._engine_kwargs(resilience, options.solver),
        )
        self.regime_detector: RegimeDetector | None = regime_detector
        self.stats = SessionStats()
        self._history_encoder = HistoryEncoder()
        self._deviation_encoder = FloatListEncoder()
        self._trace_sha = trace_sha
        self._cursor = self.time_step  # next live snapshot
        self._decomposition: Decomposition | None = None
        self._replaying = False
        self.persistence: PersistenceConfig | None = None
        self._journal: SnapshotJournal | None = None
        self._store: CheckpointStore | None = None
        return crash_models

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
    def options(self) -> SolveOptions:
        """How this session's re-calibrations solve."""
        return self._engine.options

    @property
    def solver(self) -> str:
        return self.options.solver

    @property
    def mode(self) -> str:
        return self.options.mode

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
        if self._store.blocks_written:
            self.instrumentation.count(
                "session.checkpoint.history_block_written", self._store.blocks_written
            )
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
            plan = self._plan = _ServingPlan(self.decomposition, plan)
        return plan

    def _live_snapshot(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Snapshot *k*'s live ``(α, β)``, with α checked finite on first use.

        The trace's arrays are read-only, so a snapshot that passes once
        passes on every later visit, and pricing it can skip the full-matrix
        scan (``check_finite=False``). A snapshot that fails is never
        marked, so every operation landing on it raises again. The marks are
        tied to the trace object, like the serving plan to its
        decomposition, and are never captured.
        """
        trace = self.trace
        if self._checked_trace is not trace:
            self._checked_trace = trace
            self._checked = bytearray(trace.n_snapshots)
        alpha = trace.alpha[k]
        if not self._checked[k]:
            as_square_matrix(alpha, "alpha")
            self._checked[k] = 1
        return alpha, trace.beta[k]

    def _calibrate(self, end: int, *, charge: bool) -> None:
        self._decomposition = self._engine.calibrate(end)
        if charge:
            self.stats.overhead_seconds += self.calibration_cost

    def _recalibrate(self, end: int, *, cold: bool = False) -> None:
        """Algorithm-1 re-calibration from the window ending at *end*.

        Without a health controller this is the historical strict path: a
        calibration failure propagates to the caller. With one, a failed
        attempt (not enough probes answered, solver budget exhausted) keeps
        the last good constant component in service — HOLDOVER — and backs
        off exponentially before the next attempt; a deferred request
        (still inside backoff) is counted but does not re-measure.

        ``cold=True`` is the regime-SHIFT path: the constant component
        itself has moved, so the streaming subspace (if any) is dropped and
        the solve bypasses retry backoff — holding over a stale ``P_D`` is
        exactly wrong when the change is structural rather than a
        measurement fault.
        """
        health = self.health
        if cold:
            self.controller.reset()
            if self.mode == "streaming":
                # A SHIFT is a certified-fallback trigger: drop the
                # streaming subspace; the cold solve below reseeds it.
                self._engine.import_stream_state(None)
                self.stats.stream_fallbacks += 1
                self.instrumentation.count("kernel.stream.fallbacks")
                self.instrumentation.count("kernel.stream.fallback_shift")
            self.instrumentation.count("session.regime.cold_recalibration")
            # Unprefixed twin of the counter above: fleet reports merge
            # worker instrumentation under the "regime.*" namespace.
            self.instrumentation.count("regime.forced_recalibrations")
        elif health is None:
            self._calibrate(end=end, charge=True)
            self.stats.recalibrations += 1
            return
        elif not health.should_attempt():
            self.stats.deferred_recalibrations += 1
            self.instrumentation.count("session.recalibration.deferred")
            return
        try:
            self._calibrate(end=end, charge=True)
        except (CalibrationError, ConvergenceError) as exc:
            self.stats.failed_recalibrations += 1
            self.instrumentation.count("session.recalibration.failed")
            if health is None:
                raise
            # The last *good* decomposition stays in service.
            health.record_failure(exc)
            return
        self.stats.recalibrations += 1
        self.instrumentation.count("session.recalibration.ok")
        if health is not None:
            health.record_success()

    def _observe_regime(self, k: int) -> RegimeVerdict:
        """Feed snapshot *k*'s residual to the detector and count its verdict.

        Must run before any re-calibration at this operation: the residual
        is measured against the constant component *in service*.
        """
        if self.regime_detector is None:
            return RegimeVerdict.STABLE
        residual = self._engine.snapshot_residual(k)
        verdict = self.regime_detector.observe(residual)
        if verdict is RegimeVerdict.SHIFT:
            self.stats.regime_shifts += 1
            self.instrumentation.count("session.regime.shift")
            self.instrumentation.count("regime.shift")
        elif verdict is RegimeVerdict.SPIKE:
            self.stats.regime_spikes += 1
            self.instrumentation.count("session.regime.spike")
            self.instrumentation.count("regime.spike")
        return verdict

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
        self._recalibrate(end=end)

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

    def _serve(
        self,
        entry: dict[str, Any],
        op: str,
        root: int,
        price: Callable[[int, _ServingPlan], tuple[float, float, Any]],
    ) -> tuple[OperationRecord, Any]:
        """Serve one operation: the Algorithm-1 loop every operation kind shares.

        The stages run in this order: write-ahead commit of the journal
        *entry* and crash check, advance to the live snapshot ``k``, the
        serving plan of the ``P_D`` in service, ``price(k, plan)`` (the
        operation's own part: its expected time on ``P_D``, its elapsed time
        on snapshot ``k`` and a result handed back to the caller), the
        maintenance controller, the regime detector, stream-or-recalibrate,
        the record, and the checkpoint cadence.
        """
        self._commit(entry)
        self._check_crash()
        k = self._advance()
        expected, elapsed, result = price(k, self._serving_plan())
        decision = self.controller.observe(expected, elapsed)
        regime = self._observe_regime(k)
        if regime is RegimeVerdict.SHIFT:
            # Pre-empts the threshold rule and the stream fold alike.
            self._recalibrate(end=k + 1, cold=True)
        elif self.mode == "streaming":
            self._consume_stream(k)
        elif decision is MaintenanceDecision.RECALIBRATE:
            self._recalibrate(end=k + 1)
        record = OperationRecord(
            op=op, snapshot=k, root=root, elapsed=elapsed,
            expected=expected, decision=decision,
            health=self.health_state.value, regime=regime.value,
        )
        self.stats.operations += 1
        self.stats.communication_seconds += elapsed
        self.stats.history.append(record)
        self._maybe_checkpoint()
        return record, result

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

        def price(k: int, plan: _ServingPlan) -> tuple[float, float, None]:
            if idx is None:
                expected = plan.expected(op, int(root), size)
                tree = plan.tree(int(root))
                live_alpha, live_beta = self._live_snapshot(k)
                # _live_snapshot has checked the whole snapshot already.
                check_finite = False
            else:
                # Sub-cluster trees are built per operation: the machine sets
                # a caller picks are open-ended, so they are not memoized.
                sel = np.ix_(idx, idx)
                weights = plan.weights[sel]
                np.fill_diagonal(weights, 0.0)
                live_alpha = self.trace.alpha[k][sel]
                live_beta = self.trace.beta[k][sel]
                tree = fnf_tree(weights, root)
                ea, eb = weights_to_alphabeta(weights, size)
                expected = collective_time(op, tree, ea, eb, size)
                # The gathered sub-matrix is new on every call: check it.
                check_finite = True
            elapsed = collective_time(
                op, tree, live_alpha, live_beta, size, check_finite=check_finite
            )
            return expected, elapsed, None

        entry = {
            "kind": "collective",
            "op": op,
            "root": int(root),
            "nbytes": size,
            "machines": None if idx is None else idx.tolist(),
        }
        return self._serve(entry, op, int(root), price)[0]

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

        def price(k: int, plan: _ServingPlan) -> tuple[float, float, np.ndarray]:
            mapping = greedy_mapping(graph, plan.machines())
            ea, eb = plan.alphabeta(self.nbytes)
            expected = mapping_total_time(graph, mapping, ea, eb, check_finite=False)
            live_alpha, live_beta = self._live_snapshot(k)
            elapsed = mapping_total_time(
                graph, mapping, live_alpha, live_beta, check_finite=False
            )
            return expected, elapsed, mapping

        entry = {"kind": "mapping", "volumes": pack_float64(graph.volumes)}
        record, mapping = self._serve(entry, "mapping", -1, price)
        return mapping, record.elapsed

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
        *exactly* the captured one — same cursor, same ``P_D`` — and
        continues bit-identically. *trace* must be
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
            join_blocks(capsule.arrays),
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
            # Records written before volumes were packed hold a nested list.
            self.map_tasks(TaskGraph(volumes=unpack_float64(record["volumes"])))
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
        engine row cache, decomposition in service, controllers, detector,
        stats, instrumentation — and deterministically re-executes the
        journal records committed after the checkpoint. The resumed session
        then continues exactly where the dead one would have been: same
        cursor, same ``P_D``.

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
        # Replay first, then reattach the journal in append mode.
        self._replaying = True
        try:
            for record in state.pending:
                self._replay_record(record)
        finally:
            self._replaying = False
        self._attach_persistence(persistence, fresh=False)
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
        res_meta = cfg["resilience"]
        regime_cfg = cfg["regime"]
        if regime_cfg is None:
            detector = None
        elif "name" in regime_cfg:
            detector = build_detector(regime_cfg["name"], regime_cfg["params"])
        else:
            # Pre-registry checkpoints stored bare CUSUM config fields.
            detector = CusumRegimeDetector(RegimeConfig(**regime_cfg))
        self = cls.__new__(cls)
        self._assemble(
            trace,
            nbytes=cfg["nbytes"],
            time_step=cfg["time_step"],
            threshold=cfg["threshold"],
            consecutive=cfg["consecutive"],
            calibration_cost=float(cfg["calibration_cost"]),
            options=SolveOptions.from_meta(cfg),
            faults=faults if faults is not None else cfg["faults_spec"],
            faults_spec=cfg["faults_spec"],
            fault_seed=cfg["fault_seed"],
            resilience=None if res_meta is None else ResilienceConfig(**res_meta),
            regime_detector=detector,
            instrumentation=instrumentation,
            trace_sha=meta["trace"]["sha256"],
        )
        self._crash_models = ()

        ctrl_state = dict(meta["controller"])
        ctrl_state["deviations"] = arrays["ctrl_deviations"].tolist()
        self.controller.restore_state(ctrl_state)
        if self.health is not None and meta["health"] is not None:
            self.health.restore_state(meta["health"])
        if detector is not None and meta["regime_state"] is not None:
            detector.restore_state(meta["regime_state"])

        self._engine.import_cache(engine_cache_from_state(arrays))
        self._engine.instrumentation.restore_state(meta["instrumentation"])
        dec = decomposition_from_state(arrays, meta["decomposition"])
        self._decomposition = dec
        self._engine.last = dec
        stream_meta = meta.get("stream")
        if stream_meta is not None:
            self._engine.import_stream_state(
                stream_state_from_payload(arrays, stream_meta)
            )

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
        self._cursor = int(meta["cursor"])
        return self
