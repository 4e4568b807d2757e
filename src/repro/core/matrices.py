"""Matrix containers of paper Sec III.

``PerformanceMatrix``
    One all-link snapshot: an N×N matrix of link weights (transfer times —
    lower is better), zero diagonal.
``TPMatrix``
    The temporal performance matrix ``N_A``: ``n`` snapshots flattened
    row-major into an ``n × N²`` matrix, rows ordered by measurement time.
``TCMatrix`` / ``TEMatrix``
    The constant and error components produced by decomposition; a TC-matrix
    is rank one with all rows equal by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._validation import as_float_matrix, as_square_matrix, off_diagonal
from ..errors import ValidationError

__all__ = ["PerformanceMatrix", "TPMatrix", "TCMatrix", "TEMatrix"]


@dataclass(frozen=True)
class PerformanceMatrix:
    """One snapshot of pair-wise link weights for an N-machine virtual cluster.

    Entry ``(i, j)`` is the measured/estimated cost of the directed link from
    machine *i* to machine *j* (seconds for the calibration message size).
    The diagonal is identically zero. Off-diagonal weights must be positive —
    a zero off-diagonal weight would make greedy link selection degenerate.

    Parameters
    ----------
    weights:
        Square array of link weights.
    timestamp:
        Measurement time (seconds since trace start); purely informational.
    """

    weights: np.ndarray
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        w = as_square_matrix(self.weights, "weights")
        if np.any(np.diagonal(w) != 0.0):
            raise ValidationError("PerformanceMatrix diagonal must be zero")
        if w.shape[0] > 1 and off_diagonal(w).min() <= 0.0:
            raise ValidationError("off-diagonal weights must be positive")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "timestamp", float(self.timestamp))

    @property
    def n_machines(self) -> int:
        return self.weights.shape[0]

    def flatten(self) -> np.ndarray:
        """Row-major flattening into an ``N²`` vector (paper's layout)."""
        return self.weights.ravel().copy()

    @classmethod
    def from_flat(cls, vec: np.ndarray, timestamp: float = 0.0) -> "PerformanceMatrix":
        """Inverse of :meth:`flatten` — reshape an ``N²`` vector to N×N."""
        v = np.asarray(vec, dtype=np.float64).ravel()
        n = int(round(np.sqrt(v.size)))
        if n * n != v.size:
            raise ValidationError(f"vector length {v.size} is not a perfect square")
        return cls(weights=v.reshape(n, n), timestamp=timestamp)

    def restrict(self, machines: np.ndarray | list[int]) -> "PerformanceMatrix":
        """Sub-matrix for a virtual sub-cluster ``C' ⊆ C`` (paper Alg. 1 line 3)."""
        idx = np.asarray(machines, dtype=np.intp)
        if idx.size == 0:
            raise ValidationError("machines must be non-empty")
        if len(set(idx.tolist())) != idx.size:
            raise ValidationError("machines must be distinct")
        if idx.min() < 0 or idx.max() >= self.n_machines:
            raise ValidationError("machine index out of range")
        return PerformanceMatrix(
            weights=self.weights[np.ix_(idx, idx)], timestamp=self.timestamp
        )


@dataclass(frozen=True)
class TPMatrix:
    """Temporal performance matrix ``N_A`` (paper Sec III).

    ``data[k]`` is the row-major flattening of the k-th snapshot; rows are
    ordered by measurement time (``timestamps`` must be non-decreasing).

    ``mask`` marks which entries were actually *observed* (``True``) versus
    lost to probe failures or VM outages (``False``). ``None`` — the default
    and the historical behavior — means fully observed. Masked-out entries
    still hold a finite placeholder value (conventionally 0.0) so the array
    stays dense; solvers that understand masks ignore those values, and
    everything else must refuse a partially-observed matrix rather than
    treat the placeholders as measurements.
    """

    data: np.ndarray
    n_machines: int
    timestamps: np.ndarray = field(default=None)  # type: ignore[assignment]
    mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        d = as_float_matrix(self.data, "data")
        n = int(self.n_machines)
        if n <= 0:
            raise ValidationError("n_machines must be positive")
        if d.shape[1] != n * n:
            raise ValidationError(
                f"TPMatrix has {d.shape[1]} columns; expected n_machines²={n * n}"
            )
        if self.timestamps is None:
            ts = np.arange(d.shape[0], dtype=np.float64)
        else:
            ts = np.asarray(self.timestamps, dtype=np.float64).ravel()
            if ts.size != d.shape[0]:
                raise ValidationError("timestamps length must equal number of rows")
            if np.any(np.diff(ts) < 0):
                raise ValidationError("timestamps must be non-decreasing")
        mask = self.mask
        if mask is not None:
            m = np.asarray(mask)
            if m.dtype != np.bool_:
                raise ValidationError("mask must be a boolean array")
            if m.shape != d.shape:
                raise ValidationError(
                    f"mask shape {m.shape} does not match data shape {d.shape}"
                )
            if not m.any():
                raise ValidationError("mask must observe at least one entry")
            if m.all():
                mask = None  # fully observed — normalize to the unmasked form
            else:
                mask = np.ascontiguousarray(m)
                mask.setflags(write=False)
        d.setflags(write=False)
        ts.setflags(write=False)
        object.__setattr__(self, "data", d)
        object.__setattr__(self, "n_machines", n)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "mask", mask)

    @property
    def n_snapshots(self) -> int:
        return self.data.shape[0]

    @property
    def observed_fraction(self) -> float:
        """Fraction of *off-diagonal* entries that were observed (1.0 unmasked)."""
        if self.mask is None:
            return 1.0
        n = self.n_machines
        off = ~np.eye(n, dtype=bool).ravel()
        total = self.n_snapshots * int(off.sum())
        return float(self.mask[:, off].sum()) / total if total else 1.0

    def row_observed_fractions(self) -> np.ndarray:
        """Per-snapshot observed fraction over off-diagonal entries."""
        n = self.n_machines
        off = ~np.eye(n, dtype=bool).ravel()
        if self.mask is None:
            return np.ones(self.n_snapshots)
        denom = float(off.sum()) or 1.0
        return self.mask[:, off].sum(axis=1) / denom

    @classmethod
    def from_snapshots(cls, snapshots: list[PerformanceMatrix]) -> "TPMatrix":
        """Stack time-ordered :class:`PerformanceMatrix` snapshots."""
        if not snapshots:
            raise ValidationError("snapshots must be non-empty")
        n = snapshots[0].n_machines
        for s in snapshots:
            if s.n_machines != n:
                raise ValidationError("all snapshots must have the same size")
        data = np.stack([s.flatten() for s in snapshots])
        ts = np.array([s.timestamp for s in snapshots], dtype=np.float64)
        order = np.argsort(ts, kind="stable")
        return cls(data=data[order], n_machines=n, timestamps=ts[order])

    def snapshot(self, k: int) -> PerformanceMatrix:
        """Reconstruct the k-th snapshot as a :class:`PerformanceMatrix`."""
        if not 0 <= k < self.n_snapshots:
            raise ValidationError(f"snapshot index {k} out of range")
        return PerformanceMatrix.from_flat(self.data[k], timestamp=self.timestamps[k])

    def head(self, k: int) -> "TPMatrix":
        """First *k* rows — the calibration prefix for a given time step."""
        if not 1 <= k <= self.n_snapshots:
            raise ValidationError(f"head size {k} out of range")
        return TPMatrix(
            data=self.data[:k].copy(),
            n_machines=self.n_machines,
            timestamps=self.timestamps[:k].copy(),
            mask=None if self.mask is None else self.mask[:k].copy(),
        )


def _component_matrix_post_init(self: object, d: np.ndarray, n: int) -> None:
    if d.shape[1] != n * n:
        raise ValidationError(
            f"component matrix has {d.shape[1]} columns; expected {n * n}"
        )
    d.setflags(write=False)
    object.__setattr__(self, "data", d)
    object.__setattr__(self, "n_machines", n)


@dataclass(frozen=True)
class TCMatrix:
    """Temporal constant matrix ``N_D``: the rank-one long-term component.

    Constructed from the single constant row; materializing the full
    ``n × N²`` matrix is never needed except for residual checks, so the
    container stores ``row`` plus the intended number of snapshot rows.
    """

    row: np.ndarray
    n_rows: int
    n_machines: int

    def __post_init__(self) -> None:
        r = np.asarray(self.row, dtype=np.float64).ravel().copy()
        n = int(self.n_machines)
        if n <= 0:
            raise ValidationError("n_machines must be positive")
        if r.size != n * n:
            raise ValidationError(f"row length {r.size} != n_machines²={n * n}")
        if not np.all(np.isfinite(r)):
            raise ValidationError("constant row contains non-finite values")
        if int(self.n_rows) <= 0:
            raise ValidationError("n_rows must be positive")
        r.setflags(write=False)
        object.__setattr__(self, "row", r)
        object.__setattr__(self, "n_rows", int(self.n_rows))
        object.__setattr__(self, "n_machines", n)

    def as_matrix(self) -> np.ndarray:
        """Materialize the full rank-one matrix (all rows equal)."""
        return np.broadcast_to(self.row, (self.n_rows, self.row.size)).copy()

    def performance_matrix(self, *, clip_floor: float | None = None) -> PerformanceMatrix:
        """The constant component as an optimizer-ready weight matrix ``P_D``.

        RPCA solvers can produce tiny non-positive weights on links whose true
        weight is near zero; *clip_floor* (default: smallest positive entry
        ×1e-3) keeps the result a valid :class:`PerformanceMatrix`.
        """
        w = self.row.reshape(self.n_machines, self.n_machines).copy()
        np.fill_diagonal(w, 0.0)
        if self.n_machines > 1:
            off = off_diagonal(w)
            smallest = off.min()
            if not smallest > 0:  # the smallest positive entry needs a mask
                smallest = off.min(initial=np.inf, where=off > 0)
                if smallest == np.inf:
                    raise ValidationError("constant component has no positive weights")
            floor = clip_floor if clip_floor is not None else float(smallest) * 1e-3
            np.maximum(off, floor, out=off)
        return PerformanceMatrix(weights=w)


@dataclass(frozen=True)
class TEMatrix:
    """Temporal error matrix ``N_E``: the sparse transient component."""

    data: np.ndarray
    n_machines: int

    def __post_init__(self) -> None:
        d = as_float_matrix(self.data, "data")
        _component_matrix_post_init(self, d, int(self.n_machines))

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]
