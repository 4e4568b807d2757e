"""Shared argument-validation helpers.

These helpers centralize the shape/dtype/range checks that the public API
performs before handing data to vectorized numpy kernels, so error messages
are consistent across the package and the hot paths stay branch-free.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "as_float_matrix",
    "as_square_matrix",
    "check_positive",
    "check_nonnegative",
    "check_probability",
    "check_in_range",
    "check_index",
    "off_diagonal",
]


def as_float_matrix(
    a: object, name: str = "a", *, check_finite: bool = True
) -> np.ndarray:
    """Coerce *a* to a 2-D float64 C-contiguous array or raise.

    *check_finite* ``False`` skips only the scan for non-finite entries,
    for a caller that has already validated the same read-only array.
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if check_finite and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(arr)


def as_square_matrix(
    a: object, name: str = "a", *, check_finite: bool = True
) -> np.ndarray:
    """Coerce *a* to a square 2-D float64 array or raise (see
    :func:`as_float_matrix` for *check_finite*)."""
    arr = as_float_matrix(a, name, check_finite=check_finite)
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")
    return arr


def off_diagonal(a: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of a C-contiguous square array, as a view.

    Diagonal entry ``i`` sits at flat index ``i·(n+1)``, so the flat array
    from index 1 on, read as ``(n-1) × (n+1)``, holds each diagonal entry
    in its last column. The view drops that column: it has the entries of
    ``a[~np.eye(n, dtype=bool)]`` in the same (row-major) order, and
    writing through it writes *a*, so one pass over it replaces a mask
    gather (and its scatter back).
    """
    n = a.shape[0]
    if not a.flags.c_contiguous:
        raise ValueError("off_diagonal needs a C-contiguous array")
    return a.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]


def check_positive(value: float, name: str) -> float:
    v = float(value)
    if not np.isfinite(v) or v <= 0:
        raise ValidationError(f"{name} must be a positive finite number, got {value!r}")
    return v


def check_nonnegative(value: float, name: str) -> float:
    v = float(value)
    if not np.isfinite(v) or v < 0:
        raise ValidationError(f"{name} must be a non-negative finite number, got {value!r}")
    return v


def check_probability(value: float, name: str) -> float:
    v = float(value)
    if not np.isfinite(v) or not 0.0 <= v <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")
    return v


def check_in_range(value: float, lo: float, hi: float, name: str) -> float:
    v = float(value)
    if not np.isfinite(v) or not lo <= v <= hi:
        raise ValidationError(f"{name} must lie in [{lo}, {hi}], got {value!r}")
    return v


def check_index(value: int, n: int, name: str) -> int:
    v = int(value)
    if not 0 <= v < n:
        raise ValidationError(f"{name} must lie in [0, {n}), got {value!r}")
    return v


def check_distinct(values: Sequence[int], name: str) -> None:
    if len(set(values)) != len(values):
        raise ValidationError(f"{name} must contain distinct values")
