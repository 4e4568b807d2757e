"""Fig 5 — relative difference of long-term performance vs time step.

For each candidate time step *s*, decompose only the first *s* snapshots and
compare the predicted constant row ``P_D`` against the oracle ``P'_D``
obtained from the whole trace; the y-axis is the relative difference
``Norm(P_D)``. The paper selects the smallest time step whose difference is
within 10% — ten, on its EC2 trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cloudsim.trace import CalibrationTrace
from ..core.decompose import decompose
from ..core.metrics import relative_difference
from ..core.options import SolveOptions
from ..errors import ValidationError

__all__ = ["Fig05Result", "run", "select_time_step"]


@dataclass(frozen=True)
class Fig05Result:
    """Series of (time_step, relative_difference) plus the selected step."""

    time_steps: tuple[int, ...]
    relative_differences: tuple[float, ...]
    selected: int
    tolerance: float

    def as_rows(self) -> list[tuple[int, float]]:
        return list(zip(self.time_steps, self.relative_differences))


def select_time_step(
    steps: tuple[int, ...], diffs: tuple[float, ...], tolerance: float
) -> int:
    """Smallest step whose relative difference is within *tolerance*."""
    for s, d in zip(steps, diffs):
        if d <= tolerance:
            return s
    return steps[-1]


def run(
    trace: CalibrationTrace,
    *,
    time_steps: tuple[int, ...] = (2, 4, 6, 8, 10, 15, 20, 30),
    nbytes: float = 8.0 * 1024 * 1024,
    solver: str = SolveOptions.solver,
    tolerance: float = 0.10,
) -> Fig05Result:
    """Sweep calibration time steps against the whole-trace oracle."""
    usable = tuple(s for s in time_steps if s <= trace.n_snapshots)
    if not usable:
        raise ValidationError("no time step fits within the trace")
    tp_full = trace.tp_matrix(nbytes)
    oracle = decompose(tp_full, solver=solver).constant.row
    diffs: list[float] = []
    for s in usable:
        tp = trace.tp_matrix(nbytes, start=0, count=s)
        predicted = decompose(tp, solver=solver).constant.row
        diffs.append(relative_difference(predicted, oracle))
    diffs_t = tuple(float(d) for d in diffs)
    return Fig05Result(
        time_steps=usable,
        relative_differences=diffs_t,
        selected=select_time_step(usable, diffs_t, tolerance),
        tolerance=tolerance,
    )
