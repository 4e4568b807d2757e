"""The calibrator: drive a measurement substrate through a pairing schedule.

A *measurement substrate* answers ping-pong probes — the trace replay
substrate reads the synthetic trace (optionally with measurement noise), the
netsim substrate (:mod:`repro.netsim.probe`) actually simulates the probe
flows. The calibrator walks the schedule round by round, assembles full
(α, β) matrices per snapshot, and stacks them into TP-matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .._validation import check_nonnegative, check_probability
from ..cloudsim.trace import CalibrationTrace
from ..core.matrices import TPMatrix
from ..errors import CalibrationError
from ..observability import emit_count
from ..utils.seeding import spawn_rng
from .schedule import PairingSchedule, pairing_rounds

__all__ = [
    "MeasurementSubstrate",
    "TraceSubstrate",
    "SnapshotMeasurement",
    "Calibrator",
    "CalibratorWindowSource",
]


def _probe_ok(a_v: float, b_v: float) -> bool:
    """A probe answer is usable iff finite, α ≥ 0 and β > 0."""
    return bool(np.isfinite(a_v) and np.isfinite(b_v) and a_v >= 0 and b_v > 0)


@dataclass(frozen=True)
class SnapshotMeasurement:
    """One snapshot's (α, β) matrices plus what was actually observed.

    ``mask`` is ``True`` where a probe answered with a usable value (the
    diagonal is always ``True``); unobserved entries hold benign
    placeholders (α = 0, β = +inf, i.e. zero weight) that downstream
    consumers must ignore per the mask. ``retry_waves`` counts how many
    retry rounds were needed; ``backoff_seconds`` is the wall-clock cost
    those waves are modelled to have added.
    """

    alpha: np.ndarray
    beta: np.ndarray
    mask: np.ndarray
    retry_waves: int = 0
    backoff_seconds: float = 0.0

    @property
    def observed_fraction(self) -> float:
        """Fraction of off-diagonal entries that were measured."""
        n = self.mask.shape[0]
        off = ~np.eye(n, dtype=bool)
        total = int(off.sum())
        return float(self.mask[off].sum()) / total if total else 1.0

    @property
    def complete(self) -> bool:
        return bool(self.mask.all())


@runtime_checkable
class MeasurementSubstrate(Protocol):
    """Anything that can answer a batch of concurrent ping-pong probes."""

    @property
    def n_machines(self) -> int:
        """Number of machines probes may address."""
        ...

    def measure_round(
        self, pairs: tuple[tuple[int, int], ...], snapshot: int
    ) -> list[tuple[float, float]]:
        """Measure the given concurrent (sender, receiver) pairs.

        Returns one ``(alpha, beta)`` tuple per pair, in order. *snapshot*
        identifies the calibration epoch (trace row / simulation window).
        """
        ...


class TraceSubstrate:
    """Replay substrate: answers probes from a :class:`CalibrationTrace`.

    Parameters
    ----------
    trace:
        The ground-truth trace.
    measurement_noise:
        Relative σ of multiplicative lognormal measurement error added on
        top of the trace values (0 = exact replay).
    seed:
        Drives the measurement noise.
    """

    def __init__(
        self,
        trace: CalibrationTrace,
        *,
        measurement_noise: float = 0.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        check_nonnegative(measurement_noise, "measurement_noise")
        self.trace = trace
        self.measurement_noise = float(measurement_noise)
        self._rng = spawn_rng(seed)

    @property
    def n_machines(self) -> int:
        return self.trace.n_machines

    @property
    def n_snapshots(self) -> int:
        """Number of snapshots this substrate can answer probes for."""
        return self.trace.n_snapshots

    def measure_round(
        self, pairs: tuple[tuple[int, int], ...], snapshot: int
    ) -> list[tuple[float, float]]:
        if not 0 <= snapshot < self.trace.n_snapshots:
            raise CalibrationError(
                f"snapshot {snapshot} outside trace of {self.trace.n_snapshots}"
            )
        out: list[tuple[float, float]] = []
        a = self.trace.alpha[snapshot]
        b = self.trace.beta[snapshot]
        for s, r in pairs:
            alpha, beta = float(a[s, r]), float(b[s, r])
            if self.measurement_noise > 0:
                alpha *= float(self._rng.lognormal(0.0, self.measurement_noise))
                beta *= float(self._rng.lognormal(0.0, self.measurement_noise))
            out.append((alpha, beta))
        return out


class Calibrator:
    """Assemble TP-matrices by driving a substrate through the schedule.

    Parameters
    ----------
    substrate:
        Where measurements come from.
    schedule:
        Pairing schedule; defaults to the circle method for the substrate's
        machine count.
    cache_snapshots:
        Memoize :meth:`calibrate_snapshot` results by snapshot index, so
        overlapping re-calibration windows re-*use* measurements instead of
        re-*taking* them (each snapshot costs ``2N`` probe rounds — paper
        Fig 4). With a noisy substrate the cached draw is what gets reused;
        that is the semantics of a rolling window over past measurements.
    resilient:
        Tolerate failed probes: :class:`CalibratorWindowSource` (and hence
        :meth:`engine`) reads snapshots through :meth:`measure_snapshot`,
        which retries failed probes and returns a masked measurement,
        instead of the strict :meth:`calibrate_snapshot`, which raises on
        the first bad answer. Off by default — the historical behavior.
    max_retries:
        Retry waves per snapshot in resilient mode. Each wave re-probes
        only the still-failed pairs; transient faults re-roll per attempt,
        persistent outages keep failing.
    retry_backoff:
        Modelled wall-clock seconds the first retry wave costs; each
        further wave doubles it. Accumulated in :attr:`retry_seconds` for
        overhead accounting.
    min_observed:
        Minimum off-diagonal observed fraction :meth:`measure_snapshot`
        accepts; below it the snapshot is rejected with
        :class:`~repro.errors.CalibrationError`. 0.0 accepts anything.
    """

    def __init__(
        self,
        substrate: MeasurementSubstrate,
        schedule: PairingSchedule | None = None,
        *,
        cache_snapshots: bool = False,
        resilient: bool = False,
        max_retries: int = 2,
        retry_backoff: float = 0.5,
        min_observed: float = 0.0,
    ) -> None:
        self.substrate = substrate
        n = substrate.n_machines
        self.schedule = schedule if schedule is not None else pairing_rounds(n)
        if self.schedule.n_machines != n:
            raise CalibrationError(
                f"schedule is for {self.schedule.n_machines} machines, "
                f"substrate has {n}"
            )
        self.cache_snapshots = bool(cache_snapshots)
        self.resilient = bool(resilient)
        if int(max_retries) < 0:
            raise CalibrationError("max_retries must be >= 0")
        self.max_retries = int(max_retries)
        check_nonnegative(retry_backoff, "retry_backoff")
        self.retry_backoff = float(retry_backoff)
        self.min_observed = check_probability(min_observed, "min_observed")
        self.retry_seconds = 0.0  # modelled backoff cost accumulated so far
        self._snapshot_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._measurement_cache: dict[int, SnapshotMeasurement] = {}

    def calibrate_snapshot(self, snapshot: int) -> tuple[np.ndarray, np.ndarray]:
        """Measure every ordered pair once; return full (α, β) matrices."""
        if self.cache_snapshots:
            cached = self._snapshot_cache.get(int(snapshot))
            if cached is not None:
                return cached
        n = self.substrate.n_machines
        alpha = np.zeros((n, n))
        beta = np.full((n, n), np.inf)
        for rnd in self.schedule.rounds:
            results = self.substrate.measure_round(rnd, snapshot)
            if len(results) != len(rnd):
                raise CalibrationError(
                    "substrate returned a result count mismatching the round"
                )
            for (s, r), (a_v, b_v) in zip(rnd, results):
                if not (a_v >= 0 and b_v > 0):
                    raise CalibrationError(
                        f"invalid measurement on pair {(s, r)}: α={a_v}, β={b_v}"
                    )
                alpha[s, r] = a_v
                beta[s, r] = b_v
        if self.cache_snapshots:
            alpha.setflags(write=False)
            beta.setflags(write=False)
            self._snapshot_cache[int(snapshot)] = (alpha, beta)
        return alpha, beta

    def measure_snapshot(self, snapshot: int) -> SnapshotMeasurement:
        """Measure one snapshot tolerantly: retry failures, mask what's left.

        The fault-aware counterpart to :meth:`calibrate_snapshot`. A probe
        that returns an unusable answer (NaN, negative α, non-positive β) is
        retried up to :attr:`max_retries` waves — each wave re-probing only
        the still-failed pairs — with exponentially growing modelled backoff
        charged to :attr:`retry_seconds`. Pairs that never answer are marked
        unobserved in the returned mask (placeholders α = 0, β = +inf).

        Raises
        ------
        CalibrationError
            When, after all retries, fewer than :attr:`min_observed` of the
            off-diagonal entries were measured.
        """
        if self.cache_snapshots:
            cached = self._measurement_cache.get(int(snapshot))
            if cached is not None:
                return cached
        n = self.substrate.n_machines
        alpha = np.zeros((n, n))
        beta = np.full((n, n), np.inf)
        mask = np.eye(n, dtype=bool)  # diagonal counts as observed
        failed: list[tuple[int, int]] = []
        for rnd in self.schedule.rounds:
            results = self.substrate.measure_round(rnd, snapshot)
            if len(results) != len(rnd):
                raise CalibrationError(
                    "substrate returned a result count mismatching the round"
                )
            for (s, r), (a_v, b_v) in zip(rnd, results):
                if _probe_ok(a_v, b_v):
                    alpha[s, r] = a_v
                    beta[s, r] = b_v
                    mask[s, r] = True
                else:
                    emit_count("calibrator.probe.failed")
                    failed.append((s, r))
        waves = 0
        backoff = 0.0
        while failed and waves < self.max_retries:
            waves += 1
            backoff += self.retry_backoff * 2.0 ** (waves - 1)
            emit_count("calibrator.probe.retried", len(failed))
            retry_pairs = tuple(failed)
            results = self.substrate.measure_round(retry_pairs, snapshot)
            if len(results) != len(retry_pairs):
                raise CalibrationError(
                    "substrate returned a result count mismatching the round"
                )
            failed = []
            for (s, r), (a_v, b_v) in zip(retry_pairs, results):
                if _probe_ok(a_v, b_v):
                    alpha[s, r] = a_v
                    beta[s, r] = b_v
                    mask[s, r] = True
                    emit_count("calibrator.probe.recovered")
                else:
                    failed.append((s, r))
        self.retry_seconds += backoff
        for s, r in failed:
            emit_count("calibrator.probe.lost")
        measurement = SnapshotMeasurement(
            alpha=alpha, beta=beta, mask=mask,
            retry_waves=waves, backoff_seconds=backoff,
        )
        if measurement.observed_fraction < self.min_observed:
            emit_count("calibrator.snapshot.rejected")
            raise CalibrationError(
                f"snapshot {snapshot}: only {measurement.observed_fraction:.1%} "
                f"of probes answered (< {self.min_observed:.1%} required) "
                f"after {waves} retry wave(s)"
            )
        if self.cache_snapshots:
            for arr in (alpha, beta, mask):
                arr.setflags(write=False)
            self._measurement_cache[int(snapshot)] = measurement
        return measurement

    def calibrate(
        self, snapshots: list[int] | range, nbytes: float
    ) -> TPMatrix:
        """Calibrate the listed snapshots into a TP-matrix of link weights."""
        check_nonnegative(nbytes, "nbytes")
        snaps = list(snapshots)
        if not snaps:
            raise CalibrationError("at least one snapshot is required")
        n = self.substrate.n_machines
        off = ~np.eye(n, dtype=bool)
        rows = np.empty((len(snaps), n * n))
        for i, k in enumerate(snaps):
            alpha, beta = self.calibrate_snapshot(k)
            w = np.zeros((n, n))
            w[off] = alpha[off] + nbytes / beta[off]
            rows[i] = w.ravel()
        return TPMatrix(
            data=rows, n_machines=n, timestamps=np.asarray(snaps, dtype=np.float64)
        )

    def engine(self, *, nbytes: float, n_snapshots: int | None = None, **kwargs):
        """A :class:`~repro.core.engine.DecompositionEngine` over this calibrator.

        The engine reads snapshots through :class:`CalibratorWindowSource`,
        so rolling re-calibration windows share measurements (enable
        ``cache_snapshots`` to also avoid re-probing). *n_snapshots* bounds the addressable snapshot range; it
        defaults to the substrate's own ``n_snapshots`` when it has one.
        Remaining keyword arguments go to the engine constructor
        (``time_step``, ``options``, ...).
        """
        from ..core.engine import DecompositionEngine

        source = CalibratorWindowSource(self, n_snapshots=n_snapshots)
        return DecompositionEngine(source, nbytes=nbytes, **kwargs)


class CalibratorWindowSource:
    """Adapt a :class:`Calibrator` to :class:`repro.core.engine.WindowSource`.

    Each snapshot row is assembled with the same elementwise operations
    :meth:`Calibrator.calibrate` uses, so engine windows are byte-identical
    to direct ``calibrate(range(start, stop), nbytes)`` calls (given the
    same measurement draws — use ``cache_snapshots=True`` on a noisy
    substrate to pin them). Snapshot indices double as timestamps, matching
    :meth:`Calibrator.calibrate`.

    In resilient mode (``Calibrator(resilient=True)``) rows come from
    :meth:`Calibrator.measure_snapshot` instead: failed probes are retried
    and what remains unanswered is reported through :meth:`snapshot_mask`
    (the engine reads the mask right after the row for the same snapshot;
    the measurement is memoized so both views come from the same draws).
    """

    def __init__(self, calibrator: Calibrator, n_snapshots: int | None = None) -> None:
        self.calibrator = calibrator
        if n_snapshots is None:
            n_snapshots = getattr(calibrator.substrate, "n_snapshots", None)
        if n_snapshots is None:
            raise CalibrationError(
                "substrate does not expose n_snapshots; pass it explicitly"
            )
        if int(n_snapshots) < 1:
            raise CalibrationError("n_snapshots must be >= 1")
        self._n_snapshots = int(n_snapshots)
        n = calibrator.substrate.n_machines
        self._off = ~np.eye(n, dtype=bool)
        self._last: tuple[int, SnapshotMeasurement] | None = None

    @property
    def n_machines(self) -> int:
        return int(self.calibrator.substrate.n_machines)

    @property
    def n_snapshots(self) -> int:
        return self._n_snapshots

    def _measure(self, k: int) -> SnapshotMeasurement:
        if self._last is not None and self._last[0] == int(k):
            return self._last[1]
        measurement = self.calibrator.measure_snapshot(int(k))
        self._last = (int(k), measurement)
        return measurement

    def snapshot_row(self, k: int, nbytes: float) -> np.ndarray:
        if self.calibrator.resilient:
            m = self._measure(k)
            alpha, beta = m.alpha, m.beta
        else:
            alpha, beta = self.calibrator.calibrate_snapshot(k)
        w = np.zeros_like(alpha)
        w[self._off] = alpha[self._off] + nbytes / beta[self._off]
        return w.ravel()

    def snapshot_mask(self, k: int) -> np.ndarray | None:
        """Observation mask of the memoized measurement (resilient mode)."""
        if not self.calibrator.resilient:
            return None
        m = self._measure(k)
        return None if m.complete else m.mask.reshape(-1).copy()

    def timestamp(self, k: int) -> float:
        return float(k)
