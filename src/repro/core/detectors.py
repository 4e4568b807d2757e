"""Pluggable regime-shift detection over the session's residual signal.

The maintenance loop's recalibration guard is a *detector*: an online
classifier that consumes one ``Norm(N_E)``-style residual per operation (the
relative L1 distance between the live snapshot and the constant component in
service, see
:meth:`~repro.core.engine.DecompositionEngine.snapshot_residual`) and emits
a :class:`RegimeVerdict`. PR 3 hardcoded one such detector — the winsorized
CUSUM. This module extracts the contract into the :class:`RegimeDetector`
protocol, keeps :class:`CusumRegimeDetector` as the default implementation,
and adds drop-in alternatives from the IaaS change-detection literature
(Fattah & Bouguettaya's signature-based / noise-aware line; see
``docs/regime_detection.md`` for the catalog and tuning guide):

* ``"cusum"`` — :class:`CusumRegimeDetector`, tuned for abrupt sustained
  level shifts.
* ``"signature"`` — :class:`SignatureRegimeDetector`, windowed
  performance-signature distance against the baseline signature learned
  during warmup (level *and* dispersion move the distance).
* ``"noise-robust"`` — :class:`NoiseRobustRegimeDetector`, median/MAD rank
  statistics so bursty heavy-tailed noise cannot masquerade as a shift.
* ``"drift"`` — :class:`DriftRegimeDetector`, an anchored mean-elevation
  test with a difference-based noise scale, built for the slow ramps
  CUSUM's spike/shift dichotomy misses.

Detectors register under a name (:func:`register_detector`) and sessions,
fleet configs and the CLI build them through :func:`build_detector`, so
detector choice is a validated configuration value — not an import. Every
detector's mutable state round-trips losslessly through
``state_dict``/``restore_state`` (JSON-safe), which is what keeps
SIGKILL-resume and fleet worker migration bit-identical.
"""

from __future__ import annotations

import math
import statistics
from collections import deque
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Any, ClassVar, Protocol, runtime_checkable

from .._validation import check_nonnegative, check_positive
from ..errors import ValidationError

__all__ = [
    "DEFAULT_DETECTOR",
    "RegimeVerdict",
    "RegimeDetector",
    "RegimeConfig",
    "CusumRegimeDetector",
    "SignatureConfig",
    "SignatureRegimeDetector",
    "NoiseRobustConfig",
    "NoiseRobustRegimeDetector",
    "DriftConfig",
    "DriftRegimeDetector",
    "register_detector",
    "detector_names",
    "detector_spec",
    "build_detector",
    "validate_regime_detector",
    "parse_detector_params",
]

#: The detector a bare ``regime=True`` (and the deprecated bare CLI flag)
#: resolves to — the historical CUSUM path, bit-for-bit.
DEFAULT_DETECTOR = "cusum"


class RegimeVerdict(Enum):
    """How the regime detector classifies one residual observation.

    Algorithm 1 treats every above-threshold deviation identically; the
    signature/change-point literature (Fattah et al.; Duplyakin et al.)
    distinguishes *transient spikes* — interference RPCA's sparse term is
    built to absorb, where the right move is to keep serving ``P_D`` — from
    *regime shifts*, where the constant component itself has moved and only
    a full cold re-calibration helps.
    """

    STABLE = "stable"  # residual consistent with the learned baseline
    SPIKE = "spike"  # one-off excursion; keep serving P_D
    SHIFT = "shift"  # sustained level change; re-calibrate cold


@runtime_checkable
class RegimeDetector(Protocol):
    """The contract every registered regime detector satisfies.

    One residual in, one :class:`RegimeVerdict` out, with lossless
    JSON-safe state capture — the session, the checkpoint layer and the
    fleet capsule protocol all program against exactly this surface.
    """

    name: ClassVar[str]
    shifts: int
    spikes: int

    @property
    def warmed_up(self) -> bool: ...

    def observe(self, value: float) -> RegimeVerdict: ...

    def reset(self) -> None: ...

    def params(self) -> dict[str, Any]: ...

    def state_dict(self) -> dict[str, Any]: ...

    def restore_state(self, state: dict[str, Any]) -> None: ...


def _check_finite(value: float) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"residual observation must be finite, got {value!r}")
    return x


@dataclass(frozen=True)
class RegimeConfig:
    """Tunables of the CUSUM regime-shift detector.

    The detector standardizes each residual-norm observation against a
    baseline learned during *warmup* and accumulates a one-sided CUSUM
    statistic ``S ← max(0, S + min(z, spike_z) − drift)``. ``S ≥ decision``
    signals a regime shift; an instantaneous ``z ≥ spike_z`` that does not
    push ``S`` over the line is a transient spike. The winsorization (``z``
    clipped at ``spike_z`` before accumulating) is what makes the two
    distinguishable: one interference spike — however violent — contributes
    at most ``spike_z − drift`` to ``S``, so only *sustained* elevation
    across ``≈ decision / (spike_z − drift)`` consecutive operations can
    reach the decision interval.

    Attributes
    ----------
    drift:
        CUSUM slack per observation, in baseline standard deviations; the
        allowance subtracted before accumulating (larger = less sensitive
        to slow drift).
    decision:
        CUSUM decision interval ``h``, in baseline standard deviations.
    warmup:
        Observations used to learn the baseline mean and deviation before
        any classification happens (everything is ``STABLE`` during warmup).
    spike_z:
        Standardized residual that counts as a transient spike; also the
        winsorization cap on each observation's CUSUM contribution.
    min_rel_sigma:
        Floor on the baseline standard deviation as a fraction of the
        baseline mean — calm traces have near-zero residual variance, and
        an unfloored σ would turn measurement noise into shifts.
    """

    drift: float = 0.5
    decision: float = 8.0
    warmup: int = 6
    spike_z: float = 4.0
    min_rel_sigma: float = 0.1

    def __post_init__(self) -> None:
        check_nonnegative(self.drift, "drift")
        check_positive(self.decision, "decision")
        if int(self.warmup) < 2:
            raise ValueError("warmup must be >= 2 observations")
        check_positive(self.spike_z, "spike_z")
        check_positive(self.min_rel_sigma, "min_rel_sigma")
        if float(self.decision) <= float(self.spike_z) - float(self.drift):
            raise ValueError(
                "decision must exceed spike_z - drift, or a single "
                "winsorized spike could masquerade as a regime shift"
            )


class CusumRegimeDetector:
    """Online change-point detector over per-snapshot residual norms.

    Feed it one ``Norm(N_E)``-style residual per operation (the relative L1
    distance between the live snapshot and the constant component in
    service, see
    :meth:`~repro.core.engine.DecompositionEngine.snapshot_residual`) and it
    returns a :class:`RegimeVerdict`. A permanent band change keeps the
    residual elevated against a stale ``P_D``, so the CUSUM statistic ramps
    to the decision interval within a few operations; an equal-magnitude
    one-snapshot spike contributes once and decays.

    After signalling ``SHIFT`` the detector resets itself entirely — the
    caller re-calibrates cold, the residual level changes meaning, and a
    fresh baseline must be learned for the new regime.
    """

    name: ClassVar[str] = "cusum"

    def __init__(self, config: RegimeConfig | None = None) -> None:
        self.config = config if config is not None else RegimeConfig()
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._cusum = 0.0
        self.shifts = 0
        self.spikes = 0

    @property
    def warmed_up(self) -> bool:
        return self._count >= int(self.config.warmup)

    @property
    def cusum(self) -> float:
        """Current value of the one-sided CUSUM statistic (σ units)."""
        return self._cusum

    def _sigma(self) -> float:
        var = self._m2 / (self._count - 1) if self._count > 1 else 0.0
        sigma = math.sqrt(max(var, 0.0))
        floor = self.config.min_rel_sigma * abs(self._mean)
        return max(sigma, floor, 1e-12)

    def observe(self, value: float) -> RegimeVerdict:
        """Classify one residual observation."""
        x = _check_finite(value)
        if not self.warmed_up:
            # Welford accumulation of the baseline.
            self._count += 1
            delta = x - self._mean
            self._mean += delta / self._count
            self._m2 += delta * (x - self._mean)
            return RegimeVerdict.STABLE
        z = (x - self._mean) / self._sigma()
        # Winsorized accumulation: a lone outlier contributes at most
        # spike_z - drift, so it cannot reach the decision interval alone.
        self._cusum = max(
            0.0, self._cusum + min(z, self.config.spike_z) - self.config.drift
        )
        if self._cusum >= self.config.decision:
            self.shifts += 1
            self.reset()
            return RegimeVerdict.SHIFT
        if z >= self.config.spike_z:
            self.spikes += 1
            return RegimeVerdict.SPIKE
        return RegimeVerdict.STABLE

    def reset(self) -> None:
        """Forget baseline and CUSUM state; the next observations re-warm.

        Called internally after a shift; callers should also reset after any
        cold re-calibration they initiate themselves, since the residuals'
        reference level changes with the constant component.
        """
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._cusum = 0.0

    def params(self) -> dict[str, Any]:
        """The constructor parameters, JSON-safe (for checkpoints/capsules)."""
        return asdict(self.config)

    # -- persistence -------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot of the detector's mutable state."""
        return {
            "count": self._count,
            "mean": self._mean,
            "m2": self._m2,
            "cusum": self._cusum,
            "shifts": self.shifts,
            "spikes": self.spikes,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Inverse of :meth:`state_dict` (config comes from ``__init__``)."""
        self._count = int(state["count"])
        self._mean = float(state["mean"])
        self._m2 = float(state["m2"])
        self._cusum = float(state["cusum"])
        self.shifts = int(state["shifts"])
        self.spikes = int(state["spikes"])


@dataclass(frozen=True)
class SignatureConfig:
    """Tunables of the signature-distance regime detector.

    Attributes
    ----------
    window:
        Sliding-window length over which the current performance signature
        (mean and dispersion of the standardized residuals) is formed.
    shift_distance:
        Euclidean distance between the windowed signature and the learned
        baseline signature — in baseline standard deviations — that counts
        as a regime shift (the window must be full).
    warmup:
        Observations used to learn the baseline signature before any
        classification happens.
    spike_z:
        Standardized residual that counts as a transient spike; window
        contributions are winsorized at this level, so one spike moves the
        signature distance by at most ``spike_z / window``.
    min_rel_sigma:
        Floor on the baseline standard deviation as a fraction of the
        baseline mean (calm traces have near-zero residual variance).
    """

    window: int = 4
    shift_distance: float = 3.0
    warmup: int = 6
    spike_z: float = 4.0
    min_rel_sigma: float = 0.1

    def __post_init__(self) -> None:
        if int(self.window) < 2:
            raise ValueError("window must be >= 2 observations")
        if int(self.warmup) < 2:
            raise ValueError("warmup must be >= 2 observations")
        check_positive(self.shift_distance, "shift_distance")
        check_positive(self.spike_z, "spike_z")
        check_positive(self.min_rel_sigma, "min_rel_sigma")
        if float(self.shift_distance) <= float(self.spike_z) / int(self.window):
            raise ValueError(
                "shift_distance must exceed spike_z / window, or a single "
                "winsorized spike could masquerade as a regime shift"
            )


class SignatureRegimeDetector:
    """Windowed performance-signature distance against a learned baseline.

    Fattah & Bouguettaya-style signature detection: warmup learns the
    baseline signature of the residual stream (its mean and standard
    deviation); afterwards a sliding window of winsorized standardized
    residuals forms the *current* signature, and the Euclidean distance
    between the two signatures — elevation of the window mean plus change
    in its dispersion, both in baseline σ units — is the change statistic.
    A sustained level shift moves the mean coordinate; an unstable regime
    that widens the residual distribution without moving its center moves
    the dispersion coordinate; either drives the distance over
    ``shift_distance``. One transient spike, clipped at ``spike_z``, moves
    the window mean by at most ``spike_z / window`` and decays out of the
    window after ``window`` operations.
    """

    name: ClassVar[str] = "signature"

    def __init__(self, config: SignatureConfig | None = None) -> None:
        self.config = config if config is not None else SignatureConfig()
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._window: deque[float] = deque(maxlen=int(self.config.window))
        self.shifts = 0
        self.spikes = 0

    @property
    def warmed_up(self) -> bool:
        return self._count >= int(self.config.warmup)

    def _sigma(self) -> float:
        var = self._m2 / (self._count - 1) if self._count > 1 else 0.0
        sigma = math.sqrt(max(var, 0.0))
        floor = self.config.min_rel_sigma * abs(self._mean)
        return max(sigma, floor, 1e-12)

    @property
    def distance(self) -> float:
        """Current signature distance (0.0 until the window fills)."""
        if len(self._window) < int(self.config.window):
            return 0.0
        mean_w = statistics.fmean(self._window)
        # Baseline dispersion is 1 by construction (z-scores); the current
        # window's dispersion contributes its deviation from that.
        spread_w = statistics.pstdev(self._window)
        return math.hypot(mean_w, spread_w - 1.0)

    def observe(self, value: float) -> RegimeVerdict:
        """Classify one residual observation."""
        x = _check_finite(value)
        if not self.warmed_up:
            self._count += 1
            delta = x - self._mean
            self._mean += delta / self._count
            self._m2 += delta * (x - self._mean)
            return RegimeVerdict.STABLE
        z = (x - self._mean) / self._sigma()
        self._window.append(min(z, self.config.spike_z))
        if self.distance >= self.config.shift_distance:
            self.shifts += 1
            self.reset()
            return RegimeVerdict.SHIFT
        if z >= self.config.spike_z:
            self.spikes += 1
            return RegimeVerdict.SPIKE
        return RegimeVerdict.STABLE

    def reset(self) -> None:
        """Forget baseline signature and window; the next observations re-warm."""
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._window.clear()

    def params(self) -> dict[str, Any]:
        """The constructor parameters, JSON-safe (for checkpoints/capsules)."""
        return asdict(self.config)

    # -- persistence -------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot of the detector's mutable state."""
        return {
            "count": self._count,
            "mean": self._mean,
            "m2": self._m2,
            "window": list(self._window),
            "shifts": self.shifts,
            "spikes": self.spikes,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Inverse of :meth:`state_dict` (config comes from ``__init__``)."""
        self._count = int(state["count"])
        self._mean = float(state["mean"])
        self._m2 = float(state["m2"])
        self._window = deque(
            (float(v) for v in state["window"]), maxlen=int(self.config.window)
        )
        self.shifts = int(state["shifts"])
        self.spikes = int(state["spikes"])


@dataclass(frozen=True)
class NoiseRobustConfig:
    """Tunables of the median/MAD noise-robust regime detector.

    Attributes
    ----------
    window:
        Sliding-window length whose *median* is the change statistic. A
        shift must elevate the majority of the window to fire, so up to
        ``(window - 1) // 2`` arbitrarily violent outliers per window are
        ignored outright.
    shift_score:
        Robust z-score of the window median (against the baseline median,
        in MAD-derived σ units) that counts as a regime shift.
    warmup:
        Observations collected to learn the baseline median and MAD before
        any classification happens.
    spike_z:
        Robust z-score of an individual observation that counts as a
        transient spike.
    min_rel_scale:
        Floor on the MAD-derived scale as a fraction of the baseline
        median (calm traces have near-zero residual dispersion).
    """

    window: int = 5
    shift_score: float = 4.0
    warmup: int = 8
    spike_z: float = 6.0
    min_rel_scale: float = 0.1

    def __post_init__(self) -> None:
        if int(self.window) < 3:
            raise ValueError("window must be >= 3 observations")
        if int(self.warmup) < 3:
            raise ValueError("warmup must be >= 3 observations")
        check_positive(self.shift_score, "shift_score")
        check_positive(self.spike_z, "spike_z")
        check_positive(self.min_rel_scale, "min_rel_scale")


# MAD -> σ for a normal distribution; the standard consistency constant.
_MAD_TO_SIGMA = 1.4826


class NoiseRobustRegimeDetector:
    """Rank-statistic change detection for heavy-tailed residual streams.

    The noise-aware formulation of the Fattah & Bouguettaya line: both the
    baseline (median + MAD over the warmup sample) and the change statistic
    (median of a sliding window) are order statistics, so bursty
    heavy-tailed noise — the regime where mean/variance detectors false-fire
    — has bounded influence. A minority of window entries can be arbitrarily
    large without moving the window median at all; only a *majority*
    elevation (a genuine level change) drives the robust score over
    ``shift_score``. The price is latency on true shifts: the window must be
    half-full of post-shift residuals before the median moves.
    """

    name: ClassVar[str] = "noise-robust"

    def __init__(self, config: NoiseRobustConfig | None = None) -> None:
        self.config = config if config is not None else NoiseRobustConfig()
        self._baseline: list[float] = []
        self._median = 0.0
        self._scale = 1e-12
        self._window: deque[float] = deque(maxlen=int(self.config.window))
        self.shifts = 0
        self.spikes = 0

    @property
    def warmed_up(self) -> bool:
        return len(self._baseline) >= int(self.config.warmup)

    def _finalize_baseline(self) -> None:
        self._median = float(statistics.median(self._baseline))
        mad = float(
            statistics.median(abs(v - self._median) for v in self._baseline)
        )
        floor = self.config.min_rel_scale * abs(self._median)
        self._scale = max(_MAD_TO_SIGMA * mad, floor, 1e-12)

    @property
    def score(self) -> float:
        """Robust z-score of the window median (0.0 until the window fills)."""
        if len(self._window) < int(self.config.window):
            return 0.0
        return (float(statistics.median(self._window)) - self._median) / self._scale

    def observe(self, value: float) -> RegimeVerdict:
        """Classify one residual observation."""
        x = _check_finite(value)
        if not self.warmed_up:
            self._baseline.append(x)
            if self.warmed_up:
                self._finalize_baseline()
            return RegimeVerdict.STABLE
        self._window.append(x)
        if self.score >= self.config.shift_score:
            self.shifts += 1
            self.reset()
            return RegimeVerdict.SHIFT
        if (x - self._median) / self._scale >= self.config.spike_z:
            self.spikes += 1
            return RegimeVerdict.SPIKE
        return RegimeVerdict.STABLE

    def reset(self) -> None:
        """Forget baseline sample and window; the next observations re-warm."""
        self._baseline = []
        self._median = 0.0
        self._scale = 1e-12
        self._window.clear()

    def params(self) -> dict[str, Any]:
        """The constructor parameters, JSON-safe (for checkpoints/capsules)."""
        return asdict(self.config)

    # -- persistence -------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot of the detector's mutable state."""
        return {
            "baseline": list(self._baseline),
            "median": self._median,
            "scale": self._scale,
            "window": list(self._window),
            "shifts": self.shifts,
            "spikes": self.spikes,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Inverse of :meth:`state_dict` (config comes from ``__init__``)."""
        self._baseline = [float(v) for v in state["baseline"]]
        self._median = float(state["median"])
        self._scale = float(state["scale"])
        self._window = deque(
            (float(v) for v in state["window"]), maxlen=int(self.config.window)
        )
        self.shifts = int(state["shifts"])
        self.spikes = int(state["spikes"])


@dataclass(frozen=True)
class DriftConfig:
    """Tunables of the slow-ramp drift detector.

    Attributes
    ----------
    window:
        Sliding-window length whose mean elevation above the anchor is the
        change statistic.
    decision:
        Window-mean elevation (in noise σ units) that counts as a regime
        shift (the window must be full).
    warmup:
        Observations used to learn the anchor level and the
        difference-based noise scale before any classification happens.
    spike_z:
        Standardized residual that counts as a transient spike; window
        contributions are winsorized at this level, so one spike moves the
        window mean by at most ``spike_z / window``.
    min_rel_sigma:
        Floor on the noise scale as a fraction of the anchor level.
    """

    window: int = 4
    decision: float = 2.0
    warmup: int = 6
    spike_z: float = 4.0
    min_rel_sigma: float = 0.1

    def __post_init__(self) -> None:
        if int(self.window) < 2:
            raise ValueError("window must be >= 2 observations")
        if int(self.warmup) < 3:
            raise ValueError("warmup must be >= 3 observations")
        check_positive(self.decision, "decision")
        check_positive(self.spike_z, "spike_z")
        check_positive(self.min_rel_sigma, "min_rel_sigma")
        if float(self.decision) <= float(self.spike_z) / int(self.window):
            raise ValueError(
                "decision must exceed spike_z / window, or a single "
                "winsorized spike could masquerade as a regime shift"
            )


class DriftRegimeDetector:
    """Anchored elevation test for slow ramps CUSUM's slack swallows.

    Two design choices target gradual change specifically. First, the noise
    scale comes from *lag-1 differences* (``σ = stdev(x_t − x_{t−1}) / √2``)
    rather than from the raw warmup sample: a trend that is already under
    way during warmup inflates a Welford variance — deadening every
    z-score downstream — but barely moves successive differences, so the
    scale stays an estimate of the measurement noise alone. Second, there
    is no per-observation slack: where CUSUM subtracts ``drift`` σ from
    every increment (discarding slow elevation entirely until it outruns
    the slack), this detector compares the raw window mean against the
    anchor level learned at warmup, so arbitrarily slow monotone ramps
    accumulate undiminished and fire once the elevation crosses
    ``decision``. The price is spike sensitivity between those of CUSUM
    and the median detector: winsorization caps one outlier's contribution
    at ``spike_z / window``, but two spikes inside one window add up.
    """

    name: ClassVar[str] = "drift"

    def __init__(self, config: DriftConfig | None = None) -> None:
        self.config = config if config is not None else DriftConfig()
        self._count = 0
        self._anchor = 0.0
        self._last: float | None = None
        self._dcount = 0
        self._dmean = 0.0
        self._dm2 = 0.0
        self._window: deque[float] = deque(maxlen=int(self.config.window))
        self.shifts = 0
        self.spikes = 0

    @property
    def warmed_up(self) -> bool:
        return self._count >= int(self.config.warmup)

    def _sigma(self) -> float:
        dvar = self._dm2 / (self._dcount - 1) if self._dcount > 1 else 0.0
        # Var(x_t - x_{t-1}) = 2 Var(noise) for uncorrelated noise; a slow
        # trend adds only its per-step increment, not its total excursion.
        sigma = math.sqrt(max(dvar, 0.0) / 2.0)
        floor = self.config.min_rel_sigma * abs(self._anchor)
        return max(sigma, floor, 1e-12)

    def _track_difference(self, x: float) -> None:
        if self._last is not None:
            d = x - self._last
            self._dcount += 1
            delta = d - self._dmean
            self._dmean += delta / self._dcount
            self._dm2 += delta * (d - self._dmean)
        self._last = x

    @property
    def elevation(self) -> float:
        """Window-mean elevation over the anchor, in noise σ units."""
        if len(self._window) < int(self.config.window):
            return 0.0
        return statistics.fmean(self._window)

    def observe(self, value: float) -> RegimeVerdict:
        """Classify one residual observation."""
        x = _check_finite(value)
        if not self.warmed_up:
            self._count += 1
            self._anchor += (x - self._anchor) / self._count
            self._track_difference(x)
            return RegimeVerdict.STABLE
        z = (x - self._anchor) / self._sigma()
        if z < self.config.spike_z:
            self._track_difference(x)
        # else: an outlier must not inflate the very noise scale it is
        # judged against — it is excluded from difference tracking and
        # ``_last`` keeps pointing at the last in-band sample.
        self._window.append(min(z, self.config.spike_z))
        if self.elevation >= self.config.decision:
            self.shifts += 1
            self.reset()
            return RegimeVerdict.SHIFT
        if z >= self.config.spike_z:
            self.spikes += 1
            return RegimeVerdict.SPIKE
        return RegimeVerdict.STABLE

    def reset(self) -> None:
        """Forget anchor, noise scale and window; the next observations re-warm."""
        self._count = 0
        self._anchor = 0.0
        self._last = None
        self._dcount = 0
        self._dmean = 0.0
        self._dm2 = 0.0
        self._window.clear()

    def params(self) -> dict[str, Any]:
        """The constructor parameters, JSON-safe (for checkpoints/capsules)."""
        return asdict(self.config)

    # -- persistence -------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot of the detector's mutable state."""
        return {
            "count": self._count,
            "anchor": self._anchor,
            "last": self._last,
            "dcount": self._dcount,
            "dmean": self._dmean,
            "dm2": self._dm2,
            "window": list(self._window),
            "shifts": self.shifts,
            "spikes": self.spikes,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Inverse of :meth:`state_dict` (config comes from ``__init__``)."""
        self._count = int(state["count"])
        self._anchor = float(state["anchor"])
        self._last = None if state["last"] is None else float(state["last"])
        self._dcount = int(state["dcount"])
        self._dmean = float(state["dmean"])
        self._dm2 = float(state["dm2"])
        self._window = deque(
            (float(v) for v in state["window"]), maxlen=int(self.config.window)
        )
        self.shifts = int(state["shifts"])
        self.spikes = int(state["spikes"])


# -- registry ---------------------------------------------------------------
_REGISTRY: dict[str, tuple[type, type]] = {}


def register_detector(name: str, detector_cls: type, config_cls: type) -> None:
    """Register *detector_cls* (configured by *config_cls*) under *name*.

    Re-registering a name replaces the previous entry, so downstream code
    can override a stock detector with a tuned subclass.
    """
    if not isinstance(name, str) or not name:
        raise ValidationError("detector name must be a non-empty string")
    _REGISTRY[name] = (detector_cls, config_cls)


def detector_names() -> tuple[str, ...]:
    """Registered detector names, sorted."""
    return tuple(sorted(_REGISTRY))


def detector_spec(name: str) -> tuple[type, type]:
    """The ``(detector_cls, config_cls)`` pair registered under *name*."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown regime detector {name!r}; registered detectors: "
            f"{', '.join(detector_names())}"
        ) from None


def build_detector(
    name: str, params: dict[str, Any] | None = None
) -> RegimeDetector:
    """Build the detector registered under *name* with *params* overrides.

    *params* are keyword arguments for the detector's config dataclass
    (e.g. ``{"decision": 6.0, "warmup": 8}``); invalid names or values
    raise :class:`~repro.errors.ValidationError` naming the detector.
    """
    detector_cls, config_cls = detector_spec(name)
    try:
        config = config_cls(**dict(params or {}))
    except TypeError as exc:
        raise ValidationError(
            f"bad parameters for regime detector {name!r}: {exc}"
        ) from None
    except ValueError as exc:
        raise ValidationError(
            f"bad parameters for regime detector {name!r}: {exc}"
        ) from exc
    return detector_cls(config)


def validate_regime_detector(
    name: str | None, params: dict[str, Any] | None
) -> None:
    """Validate a ``(regime_detector, regime_params)`` config pair.

    The ``__post_init__`` check behind ``SessionConfig`` (and so
    ``FleetConfig``): ``None`` with no params is the detector-free default;
    otherwise the name must be registered and the params must build a valid
    config (the trial detector is discarded — sessions build their own).
    """
    if name is None:
        if params:
            raise ValidationError(
                "regime_params given without a regime_detector; "
                "pass regime_detector=<name> as well"
            )
        return
    build_detector(name, params)


def parse_detector_params(text: str | None) -> dict[str, float | int]:
    """Parse a ``key=value[,key=value...]`` CLI string into detector params.

    Values parse as ``int`` when written as integers, ``float`` otherwise —
    matching the numeric fields every stock detector config uses.
    """
    if not text:
        return {}
    params: dict[str, float | int] = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        key, sep, raw = token.partition("=")
        key, raw = key.strip(), raw.strip()
        if not sep or not key or not raw:
            raise ValidationError(
                f"bad detector parameter {token!r}: expected key=value"
            )
        if key in params:
            raise ValidationError(f"duplicate detector parameter {key!r}")
        try:
            value: float | int = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                raise ValidationError(
                    f"bad detector parameter value {raw!r} for {key!r}: "
                    "expected a number"
                ) from None
        params[key] = value
    return params


register_detector("cusum", CusumRegimeDetector, RegimeConfig)
register_detector("signature", SignatureRegimeDetector, SignatureConfig)
register_detector("noise-robust", NoiseRobustRegimeDetector, NoiseRobustConfig)
register_detector("drift", DriftRegimeDetector, DriftConfig)
