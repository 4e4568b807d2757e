"""Calibration trace container and replay.

A :class:`CalibrationTrace` stores the raw (α, β) measurements of every
ordered pair at every snapshot — the artifact the paper's one-week EC2
calibration campaign produced and that all detailed studies replay
(Sec V-D3). Replay means: for a given message size, convert each snapshot to
a weight matrix under the α-β model and evaluate operations against the
*measured* matrix of the moment while strategies only see calibration
prefixes or derived estimates.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .._validation import check_nonnegative
from ..core.matrices import PerformanceMatrix, TPMatrix
from ..errors import ValidationError
from ..netmodel.alphabeta import transfer_time_matrix

__all__ = ["CalibrationTrace"]


@dataclass(frozen=True)
class CalibrationTrace:
    """Time series of all-link (α, β) measurements for one virtual cluster.

    Attributes
    ----------
    alpha:
        ``(T, N, N)`` latencies in seconds; diagonal 0.
    beta:
        ``(T, N, N)`` bandwidths in bytes/second; diagonal +inf.
    timestamps:
        ``(T,)`` non-decreasing measurement times in seconds.
    mask:
        Optional ``(T, N, N)`` boolean observation mask (``True`` =
        measured). ``None`` — the default and historical behavior — means
        every entry was observed. Masked-out entries still hold *some*
        value in ``alpha``/``beta`` (ground truth for injected faults,
        benign placeholders for imported partial logs); the mask is the
        source of truth for what a decomposition may trust. The diagonal is
        always considered observed.
    """

    alpha: np.ndarray
    beta: np.ndarray
    timestamps: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        a = np.asarray(self.alpha, dtype=np.float64)
        b = np.asarray(self.beta, dtype=np.float64)
        ts = np.asarray(self.timestamps, dtype=np.float64).ravel()
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise ValidationError(f"alpha must be (T, N, N), got {a.shape}")
        if b.shape != a.shape:
            raise ValidationError("alpha/beta shape mismatch")
        if ts.size != a.shape[0]:
            raise ValidationError("timestamps length must match T")
        if np.any(np.diff(ts) < 0):
            raise ValidationError("timestamps must be non-decreasing")
        a = np.ascontiguousarray(a)
        b = np.ascontiguousarray(b)
        ts = np.ascontiguousarray(ts)
        mask = self.mask
        if mask is not None:
            m = np.asarray(mask)
            if m.dtype != np.bool_:
                raise ValidationError("mask must be a boolean array")
            if m.shape != a.shape:
                raise ValidationError(
                    f"mask shape {m.shape} does not match trace shape {a.shape}"
                )
            if m.all():
                mask = None  # fully observed — normalize to the unmasked form
            else:
                mask = np.ascontiguousarray(m).copy()
                for k in range(mask.shape[0]):
                    np.fill_diagonal(mask[k], True)
                if mask.all():
                    # Only self-pairs were unobserved; forcing the diagonal
                    # made the mask trivial, so normalize like the m.all()
                    # case — otherwise an all-True mask survives here but
                    # collapses to None after one persistence round-trip.
                    mask = None
                else:
                    mask.setflags(write=False)
        for arr in (a, b, ts):
            arr.setflags(write=False)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "mask", mask)

    @cached_property
    def sha256(self) -> str:
        """Hex SHA-256 of the content: α, β and timestamps, then the mask if any.

        Checkpoints and capsules record it so that a resume can tell the
        trace is the one the session ran on. Computed on first read over
        the arrays' own buffers (C-contiguous and read-only, so no copy is
        made) and then kept: a trace never changes.
        """
        h = hashlib.sha256()
        for arr in (self.alpha, self.beta, self.timestamps, self.mask):
            if arr is not None:
                h.update(arr)
        return h.hexdigest()

    @property
    def n_snapshots(self) -> int:
        return self.alpha.shape[0]

    @property
    def n_machines(self) -> int:
        return self.alpha.shape[1]

    @property
    def observed_fraction(self) -> float:
        """Fraction of off-diagonal entries that were observed (1.0 unmasked)."""
        if self.mask is None:
            return 1.0
        off = ~np.eye(self.n_machines, dtype=bool)
        total = self.n_snapshots * int(off.sum())
        return float(self.mask[:, off].sum()) / total if total else 1.0

    def weights_at(self, k: int, nbytes: float) -> PerformanceMatrix:
        """Snapshot *k* as a weight matrix for a message of *nbytes*."""
        if not 0 <= k < self.n_snapshots:
            raise ValidationError(f"snapshot index {k} out of range")
        check_nonnegative(nbytes, "nbytes")
        w = transfer_time_matrix(self.alpha[k], self.beta[k], nbytes)
        return PerformanceMatrix(weights=w, timestamp=float(self.timestamps[k]))

    def tp_matrix(
        self, nbytes: float, *, start: int = 0, count: int | None = None
    ) -> TPMatrix:
        """Build the TP-matrix for snapshots ``[start, start+count)``.

        *count* defaults to "through the end of the trace". The conversion is
        fully vectorized across snapshots: with T rows and N machines it is a
        single ``(T, N, N)`` broadcast, not a per-row loop.
        """
        check_nonnegative(nbytes, "nbytes")
        t = self.n_snapshots
        if not 0 <= start < t:
            raise ValidationError(f"start {start} out of range")
        stop = t if count is None else start + int(count)
        if not start < stop <= t:
            raise ValidationError(f"count {count} out of range")
        a = self.alpha[start:stop]
        b = self.beta[start:stop]
        n = self.n_machines
        off = ~np.eye(n, dtype=bool)
        w = np.zeros_like(a)
        w[:, off] = a[:, off] + nbytes / b[:, off]
        mask = None
        if self.mask is not None:
            mask = self.mask[start:stop].reshape(stop - start, n * n).copy()
        return TPMatrix(
            data=w.reshape(stop - start, n * n),
            n_machines=n,
            timestamps=self.timestamps[start:stop].copy(),
            mask=mask,
        )

    def restrict(self, machines: np.ndarray | list[int]) -> "CalibrationTrace":
        """Sub-trace over a subset of machines (virtual sub-cluster)."""
        idx = np.asarray(machines, dtype=np.intp)
        if idx.size == 0:
            raise ValidationError("machines must be non-empty")
        if len(set(idx.tolist())) != idx.size:
            raise ValidationError("machines must be distinct")
        if idx.min() < 0 or idx.max() >= self.n_machines:
            raise ValidationError("machine index out of range")
        sel = np.ix_(np.arange(self.n_snapshots), idx, idx)
        return CalibrationTrace(
            alpha=self.alpha[sel].copy(),
            beta=self.beta[sel].copy(),
            timestamps=self.timestamps.copy(),
            mask=None if self.mask is None else self.mask[sel].copy(),
        )

    def window(self, start: int, stop: int) -> "CalibrationTrace":
        """Sub-trace over snapshots ``[start, stop)``."""
        if not 0 <= start < stop <= self.n_snapshots:
            raise ValidationError(f"invalid window [{start}, {stop})")
        return CalibrationTrace(
            alpha=self.alpha[start:stop].copy(),
            beta=self.beta[start:stop].copy(),
            timestamps=self.timestamps[start:stop].copy(),
            mask=None if self.mask is None else self.mask[start:stop].copy(),
        )

    def with_multiplicative_noise(
        self, factors_beta: np.ndarray, factors_alpha: np.ndarray | None = None
    ) -> "CalibrationTrace":
        """New trace with per-entry multiplicative factors applied.

        ``factors_beta`` divides bandwidth (factor > 1 slows a link);
        ``factors_alpha`` (default: same factors) multiplies latency.
        Diagonals are re-normalized afterwards.
        """
        fb = np.asarray(factors_beta, dtype=np.float64)
        if fb.shape != self.alpha.shape:
            raise ValidationError("factor array must match trace shape")
        if np.any(fb <= 0):
            raise ValidationError("factors must be positive")
        fa = fb if factors_alpha is None else np.asarray(factors_alpha, dtype=np.float64)
        if fa.shape != self.alpha.shape:
            raise ValidationError("factor array must match trace shape")
        alpha = self.alpha * fa
        beta = self.beta / fb
        for k in range(self.n_snapshots):
            np.fill_diagonal(alpha[k], 0.0)
            np.fill_diagonal(beta[k], np.inf)
        return CalibrationTrace(
            alpha=alpha,
            beta=beta,
            timestamps=self.timestamps.copy(),
            mask=None if self.mask is None else self.mask.copy(),
        )
