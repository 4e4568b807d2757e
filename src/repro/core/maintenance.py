"""Update maintenance — paper Algorithm 1 lines 4–9.

After decomposing a calibration into a constant component, the approach
keeps using that component until the *real* performance ``t`` of the guided
operation deviates from the *expected* performance ``t'`` (predicted from the
constant component under the α-β model) by more than a relative threshold:

    |t − t'| / t' ≥ threshold   →   re-calibrate, re-run RPCA.

:class:`MaintenanceController` encapsulates this feedback loop as a pure
state machine: callers report ``(expected, observed)`` pairs and receive a
:class:`MaintenanceDecision`; the controller never performs measurements
itself, so it composes with any substrate (live trace replay, netsim, real
MPI). The paper's default threshold is 100% (Fig 6 shows ≈100% is the sweet
spot: below ~20% the loop thrashes, above ~150% it never re-calibrates).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from .._validation import check_nonnegative, check_positive, check_probability
from .detectors import (  # noqa: F401  (re-exported: historical home)
    CusumRegimeDetector,
    RegimeConfig,
    RegimeVerdict,
)

__all__ = [
    "MaintenanceDecision",
    "MaintenanceController",
    "MaintenanceStats",
    "HealthState",
    "HealthTransition",
    "ResilienceConfig",
    "DegradedModeController",
    "RegimeVerdict",
    "RegimeConfig",
    "CusumRegimeDetector",
]


class MaintenanceDecision(Enum):
    """What the controller tells the caller to do next."""

    KEEP = "keep"  # constant component still valid; reuse it
    RECALIBRATE = "recalibrate"  # significant change detected; re-measure


@dataclass
class MaintenanceStats:
    """Running counters over the controller's lifetime.

    ``deviations`` holds one relative deviation per observation, as a
    float64 ``array`` (8 bytes each; a list of floats costs 32).
    """

    observations: int = 0
    recalibrations: int = 0
    max_relative_deviation: float = 0.0
    deviations: array = field(default_factory=lambda: array("d"))


class MaintenanceController:
    """Threshold-based change detector for the constant component.

    Parameters
    ----------
    threshold:
        Relative deviation that counts as a *significant change*; the
        paper's default is 1.0 (i.e. 100%).
    consecutive:
        Number of consecutive above-threshold observations required before
        signalling recalibration. The paper uses 1 (every deviation
        triggers); values > 1 debounce one-off spikes and are used in the
        ablation benches.

    Examples
    --------
    >>> c = MaintenanceController(threshold=1.0)
    >>> c.observe(expected=1.0, observed=1.5)
    <MaintenanceDecision.KEEP: 'keep'>
    >>> c.observe(expected=1.0, observed=2.5)
    <MaintenanceDecision.RECALIBRATE: 'recalibrate'>
    """

    def __init__(self, threshold: float = 1.0, *, consecutive: int = 1) -> None:
        self.threshold = check_positive(threshold, "threshold")
        if int(consecutive) < 1:
            raise ValueError("consecutive must be >= 1")
        self.consecutive = int(consecutive)
        self._streak = 0
        self.stats = MaintenanceStats()

    def relative_deviation(self, expected: float, observed: float) -> float:
        """``|t − t'| / t'`` — the paper's deviation measure."""
        check_positive(expected, "expected")
        check_nonnegative(observed, "observed")
        return abs(observed - expected) / expected

    def observe(self, expected: float, observed: float) -> MaintenanceDecision:
        """Feed one (expected, observed) pair; get the next action.

        A ``RECALIBRATE`` decision resets the internal streak — the caller is
        assumed to re-calibrate before the next observation.
        """
        dev = self.relative_deviation(expected, observed)
        self.stats.observations += 1
        self.stats.deviations.append(dev)
        if dev > self.stats.max_relative_deviation:
            self.stats.max_relative_deviation = dev
        if dev >= self.threshold:
            self._streak += 1
        else:
            self._streak = 0
        if self._streak >= self.consecutive:
            self._streak = 0
            self.stats.recalibrations += 1
            return MaintenanceDecision.RECALIBRATE
        return MaintenanceDecision.KEEP

    def reset(self) -> None:
        """Clear streak state (counters in :attr:`stats` are preserved)."""
        self._streak = 0

    # -- persistence -------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot of the controller's mutable state.

        The deviation history (``stats.deviations``) is left out: it grows
        with every observation, so checkpoints carry it as an array.
        """
        return {
            "streak": self._streak,
            "observations": self.stats.observations,
            "recalibrations": self.stats.recalibrations,
            "max_relative_deviation": self.stats.max_relative_deviation,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Inverse of :meth:`state_dict` (thresholds come from ``__init__``).

        A ``deviations`` sequence in *state* replaces the deviation history;
        without one the history is left as it is.
        """
        self._streak = int(state["streak"])
        self.stats.observations = int(state["observations"])
        self.stats.recalibrations = int(state["recalibrations"])
        self.stats.max_relative_deviation = float(state["max_relative_deviation"])
        if "deviations" in state:
            self.stats.deviations = array("d", map(float, state["deviations"]))


class HealthState(Enum):
    """Calibration-plane health of an adaptive session.

    Algorithm 1 assumes re-calibration always succeeds; under injected (or
    real) measurement faults it can fail — too few probes answered, RPCA
    budget exhausted. The session then keeps optimizing on the *last good*
    constant component while retrying with backoff:

    * ``HEALTHY`` — the current constant component comes from a successful,
      sufficiently complete calibration.
    * ``DEGRADED`` — at least one re-calibration attempt failed; the stale
      constant component is still in use and retries are being paced.
    * ``HOLDOVER`` — failures have persisted past the configured limit; the
      session has settled on the stale component (clock-discipline style
      holdover) and retries continue at the maximum backoff.
    """

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    HOLDOVER = "holdover"


@dataclass(frozen=True, slots=True)
class HealthTransition:
    """One edge of the health state machine, for post-hoc inspection."""

    operation: int
    previous: HealthState
    state: HealthState
    reason: str


@dataclass(frozen=True)
class ResilienceConfig:
    """Tunables for fault-tolerant calibration and degraded-mode operation.

    Attributes
    ----------
    max_probe_retries:
        How many times a failed probe is re-attempted within one snapshot
        measurement (transient faults re-roll per attempt).
    retry_backoff_seconds:
        Wall-clock cost charged for the first probe retry wave; each further
        wave doubles it (exponential backoff, accounted as overhead).
    min_snapshot_observed:
        Minimum off-diagonal observed fraction per snapshot for a
        calibration window to be accepted (see
        :class:`~repro.core.engine.DecompositionEngine`).
    min_window_observed:
        Same threshold for the window as a whole.
    recal_backoff_operations:
        Operations to wait after the first failed re-calibration before the
        next attempt.
    recal_backoff_factor:
        Growth factor of the wait after each consecutive failure.
    recal_backoff_max:
        Cap on the wait, in operations.
    holdover_after:
        Consecutive failed re-calibrations before ``DEGRADED`` becomes
        ``HOLDOVER``.
    strict_convergence:
        Ask the solver to raise
        :class:`~repro.errors.ConvergenceError` on budget exhaustion (when
        it supports ``raise_on_fail``) so a non-converged solve is treated
        as a calibration failure instead of silently trusted.
    """

    max_probe_retries: int = 2
    retry_backoff_seconds: float = 0.5
    min_snapshot_observed: float = 0.8
    min_window_observed: float = 0.5
    recal_backoff_operations: int = 1
    recal_backoff_factor: float = 2.0
    recal_backoff_max: int = 8
    holdover_after: int = 3
    strict_convergence: bool = True

    def __post_init__(self) -> None:
        if int(self.max_probe_retries) < 0:
            raise ValueError("max_probe_retries must be >= 0")
        check_nonnegative(self.retry_backoff_seconds, "retry_backoff_seconds")
        check_probability(self.min_snapshot_observed, "min_snapshot_observed")
        check_probability(self.min_window_observed, "min_window_observed")
        if int(self.recal_backoff_operations) < 0:
            raise ValueError("recal_backoff_operations must be >= 0")
        if float(self.recal_backoff_factor) < 1.0:
            raise ValueError("recal_backoff_factor must be >= 1")
        if int(self.recal_backoff_max) < int(self.recal_backoff_operations):
            raise ValueError("recal_backoff_max must be >= recal_backoff_operations")
        if int(self.holdover_after) < 1:
            raise ValueError("holdover_after must be >= 1")

    def backoff_operations(self, failures: int) -> int:
        """Operations to wait after the *failures*-th consecutive failure."""
        if failures <= 0:
            return 0
        wait = float(self.recal_backoff_operations) * (
            float(self.recal_backoff_factor) ** (failures - 1)
        )
        return int(min(wait, float(self.recal_backoff_max)))


class DegradedModeController:
    """HEALTHY → DEGRADED → HOLDOVER state machine over calibration outcomes.

    The session reports each re-calibration attempt's outcome and ticks the
    controller once per executed operation; the controller paces retry
    attempts (exponential backoff measured in operations) and accounts for
    staleness — how many operations have run on the current constant
    component since it was last refreshed.
    """

    def __init__(self, config: ResilienceConfig | None = None) -> None:
        self.config = config if config is not None else ResilienceConfig()
        self.state = HealthState.HEALTHY
        self.consecutive_failures = 0
        self.staleness = 0  # operations since the last successful calibration
        self.max_staleness = 0
        self._cooldown = 0  # operations until the next retry is allowed
        self.transitions: list[HealthTransition] = []
        self._operation = 0

    @property
    def healthy(self) -> bool:
        return self.state is HealthState.HEALTHY

    def tick(self) -> None:
        """Advance by one executed operation (staleness + backoff clocks)."""
        self._operation += 1
        self.staleness += 1
        if self.staleness > self.max_staleness:
            self.max_staleness = self.staleness
        if self._cooldown > 0:
            self._cooldown -= 1

    def should_attempt(self) -> bool:
        """Whether a re-calibration attempt is allowed right now."""
        return self._cooldown == 0

    def _transition(self, state: HealthState, reason: str) -> None:
        if state is not self.state:
            self.transitions.append(
                HealthTransition(
                    operation=self._operation,
                    previous=self.state,
                    state=state,
                    reason=reason,
                )
            )
            self.state = state

    def record_success(self) -> None:
        """A calibration succeeded: back to HEALTHY, clocks reset."""
        self.consecutive_failures = 0
        self._cooldown = 0
        self.staleness = 0
        self._transition(HealthState.HEALTHY, "calibration succeeded")

    def record_failure(self, error: BaseException | str) -> None:
        """A calibration attempt failed: degrade and push out the next retry."""
        self.consecutive_failures += 1
        self._cooldown = self.config.backoff_operations(self.consecutive_failures)
        target = (
            HealthState.HOLDOVER
            if self.consecutive_failures >= self.config.holdover_after
            else HealthState.DEGRADED
        )
        self._transition(target, str(error))

    # -- persistence -------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot of the health machine's mutable state."""
        return {
            "state": self.state.value,
            "consecutive_failures": self.consecutive_failures,
            "staleness": self.staleness,
            "max_staleness": self.max_staleness,
            "cooldown": self._cooldown,
            "operation": self._operation,
            "transitions": [
                {
                    "operation": t.operation,
                    "previous": t.previous.value,
                    "state": t.state.value,
                    "reason": t.reason,
                }
                for t in self.transitions
            ],
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Inverse of :meth:`state_dict` (config comes from ``__init__``)."""
        self.state = HealthState(state["state"])
        self.consecutive_failures = int(state["consecutive_failures"])
        self.staleness = int(state["staleness"])
        self.max_staleness = int(state["max_staleness"])
        self._cooldown = int(state["cooldown"])
        self._operation = int(state["operation"])
        self.transitions = [
            HealthTransition(
                operation=int(t["operation"]),
                previous=HealthState(t["previous"]),
                state=HealthState(t["state"]),
                reason=str(t["reason"]),
            )
            for t in state["transitions"]
        ]
