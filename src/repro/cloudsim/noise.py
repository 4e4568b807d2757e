"""Controlled-``Norm(N_E)`` noise injection (paper Sec V-D3).

For the Fig 10/11 studies the paper "randomly assign[s] noises to the trace
so that N_E is generated", nudging performance in 1% steps until the
decomposition's ``Norm(N_E)`` reaches a predefined target. We implement the
same closed loop but converge with bisection on a single *amplitude* knob
instead of 1% random walks — the monotone relationship between injected
noise amplitude and measured ``Norm(N_E)`` makes bisection both faster and
exactly reproducible.

The noise shape follows the paper's description: performance "change[s] by
1% (increase or decrease)" repeatedly until the target is reached — i.e.
each perturbed cell accumulates many small symmetric multiplicative nudges,
which compounds to a lognormal factor. *density* controls which fraction of
(snapshot, link) cells are perturbed at all: sparse settings model localized
interference (RPCA's sweet spot), the dense default models the paper's
whole-trace noising.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_in_range, check_probability
from ..core.decompose import decompose
from ..errors import ValidationError
from ..utils.seeding import spawn_rng
from .trace import CalibrationTrace

__all__ = ["measure_trace_norm_ne", "inject_noise_to_target"]


def measure_trace_norm_ne(
    trace: CalibrationTrace,
    *,
    nbytes: float = 8 * 1024 * 1024,
    solver: str = "row_constant",
    time_step: int | None = None,
) -> float:
    """Decompose the trace's TP-matrix and return ``Norm(N_E)``.

    The default solver is the exact row-constant decomposition — for a
    measurement loop we want a deterministic, fast inner metric; the IALM
    solver gives indistinguishable ``Norm(N_E)`` at several times the cost.
    """
    count = time_step if time_step is not None else trace.n_snapshots
    tp = trace.tp_matrix(nbytes, start=0, count=count)
    return decompose(tp, solver=solver).norm_ne


def _apply_sparse_noise(
    trace: CalibrationTrace,
    amplitude: float,
    density: float,
    rng_seed: int,
) -> CalibrationTrace:
    """One deterministic noise realization at the given amplitude.

    The random *pattern* (which cells, which direction) is fixed by
    ``rng_seed``; only the magnitude scales with ``amplitude``, keeping the
    amplitude → Norm(N_E) map monotone for bisection.
    """
    rng = spawn_rng(rng_seed)
    shape = trace.alpha.shape
    hit = rng.random(shape) < density
    # Compounded ±1% nudges ⇒ symmetric Gaussian log-factors (lognormal
    # multiplicative noise); light tails keep replay means stable.
    magnitude = rng.standard_normal(shape)
    log_factors = np.where(hit, magnitude * amplitude, 0.0)
    factors = np.exp(log_factors)
    return trace.with_multiplicative_noise(factors)


def inject_noise_to_target(
    trace: CalibrationTrace,
    target_norm_ne: float,
    *,
    nbytes: float = 8 * 1024 * 1024,
    density: float = 1.0,
    tolerance: float = 0.01,
    max_bisection_steps: int = 40,
    seed: int | np.random.Generator | None = None,
) -> tuple[CalibrationTrace, float]:
    """Return a noised copy of *trace* whose ``Norm(N_E)`` ≈ *target_norm_ne*.

    Parameters
    ----------
    trace:
        The clean (or baseline) trace.
    target_norm_ne:
        Desired relative error norm in (0, 1). Must be at least the trace's
        intrinsic ``Norm(N_E)`` — noise can only be added, not removed.
    nbytes:
        Message size used for the inner Norm(N_E) measurement.
    density:
        Fraction of (snapshot, link) cells perturbed.
    tolerance:
        Acceptable |achieved − target|.
    max_bisection_steps:
        Bisection budget before giving up with the best iterate.
    seed:
        Drives the (fixed) noise pattern.

    Returns
    -------
    (noised_trace, achieved_norm_ne)
    """
    check_in_range(target_norm_ne, 0.0, 1.0, "target_norm_ne")
    check_probability(density, "density")
    rng = spawn_rng(seed)
    pattern_seed = int(rng.integers(2**31 - 1))

    base = measure_trace_norm_ne(trace, nbytes=nbytes)
    if target_norm_ne < base - tolerance:
        raise ValidationError(
            f"target Norm(N_E)={target_norm_ne:.3f} is below the trace's "
            f"intrinsic value {base:.3f}; noise injection cannot reduce it"
        )
    if abs(base - target_norm_ne) <= tolerance:
        return trace, base

    # Find an upper bracket by doubling the amplitude.
    lo, lo_val = 0.0, base
    hi = 0.1
    for _ in range(30):
        hi_val = measure_trace_norm_ne(
            _apply_sparse_noise(trace, hi, density, pattern_seed), nbytes=nbytes
        )
        if hi_val >= target_norm_ne:
            break
        lo, lo_val = hi, hi_val
        hi *= 2.0
    else:
        raise ValidationError(
            f"could not reach target Norm(N_E)={target_norm_ne:.3f}; "
            f"best achieved {hi_val:.3f} — increase density"
        )

    best_amp, best_val = hi, hi_val
    for _ in range(max_bisection_steps):
        if abs(best_val - target_norm_ne) <= tolerance:
            break
        mid = 0.5 * (lo + hi)
        mid_val = measure_trace_norm_ne(
            _apply_sparse_noise(trace, mid, density, pattern_seed), nbytes=nbytes
        )
        if abs(mid_val - target_norm_ne) < abs(best_val - target_norm_ne):
            best_amp, best_val = mid, mid_val
        if mid_val < target_norm_ne:
            lo, lo_val = mid, mid_val
        else:
            hi, hi_val = mid, mid_val

    noised = _apply_sparse_noise(trace, best_amp, density, pattern_seed)
    return noised, best_val
