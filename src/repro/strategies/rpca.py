"""RPCA: the paper's approach (Sec IV, Algorithm 1).

Fit = decompose the calibration TP-matrix with an RPCA solver and keep the
constant row as the link-weight estimate. The strategy also owns a
:class:`~repro.core.maintenance.MaintenanceController` so a replay loop can
feed back (expected, observed) operation times and learn when to
re-calibrate, plus the :class:`~repro.core.metrics.StabilityReport` that
tells the user whether network-aware optimization is worth running at all.
"""

from __future__ import annotations

import numpy as np

from ..core.decompose import Decomposition, decompose
from ..core.maintenance import MaintenanceController, MaintenanceDecision
from ..core.matrices import TPMatrix
from ..core.options import SolveOptions
from ..errors import ValidationError
from .base import Strategy

__all__ = ["RPCAStrategy"]


class RPCAStrategy(Strategy):
    """Decompose, optimize on the constant component, maintain adaptively.

    Parameters
    ----------
    solver:
        RPCA backend (default ``"ialm"``, the paper's method, or
        ``"row_constant"``).
    threshold:
        Maintenance threshold (paper default 1.0 = 100%).
    time_step:
        Number of calibration snapshots consumed per fit (paper default 10).
        ``fit`` uses at most this many of the newest rows of the TP-matrix
        it is given.
    extraction:
        Constant-row extraction rule (see
        :func:`~repro.core.decompose.constant_row`).
    """

    tree_algorithm = "fnf"
    mapping_algorithm = "greedy"

    def __init__(
        self,
        solver: str = SolveOptions.solver,
        *,
        threshold: float = 1.0,
        time_step: int = 10,
        extraction: str = "mean",
        name: str = "RPCA",
    ) -> None:
        if int(time_step) < 1:
            raise ValidationError("time_step must be >= 1")
        self.solver = solver
        self.time_step = int(time_step)
        self.extraction = extraction
        self.name = name
        self.controller = MaintenanceController(threshold=threshold)
        self.decomposition: Decomposition | None = None

    def fit(self, tp: TPMatrix) -> None:
        if tp.n_snapshots > self.time_step:
            start = tp.n_snapshots - self.time_step
            tp = TPMatrix(
                data=tp.data[start:].copy(),
                n_machines=tp.n_machines,
                timestamps=tp.timestamps[start:].copy(),
            )
        self.decomposition = decompose(
            tp, solver=self.solver, extraction=self.extraction
        )

    def weight_matrix(self) -> np.ndarray | None:
        if self.decomposition is None:
            raise ValidationError("RPCAStrategy.fit() has not been called")
        return self.decomposition.performance_matrix().weights.copy()

    @property
    def norm_ne(self) -> float:
        """``Norm(N_E)`` of the most recent decomposition."""
        if self.decomposition is None:
            raise ValidationError("RPCAStrategy.fit() has not been called")
        return self.decomposition.norm_ne

    def observe(self, expected: float, observed: float) -> MaintenanceDecision:
        """Feed one operation's (expected, observed) time pair (Alg. 1 L4-9)."""
        return self.controller.observe(expected, observed)
