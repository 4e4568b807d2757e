"""The paper's primary contribution: RPCA-based constant-component extraction.

A *temporal performance matrix* (TP-matrix) stacks time-ordered snapshots of
all-link network performance, one snapshot per row. RPCA decomposes it into a
low-rank *temporal constant matrix* (TC-matrix — the long-term performance)
plus a sparse *temporal error matrix* (TE-matrix — transient interference).
The constant row guides classic network-performance-aware optimizations; the
relative norm of the error matrix predicts whether they will pay off.

Public surface
--------------
* :class:`TPMatrix`, :class:`TCMatrix`, :class:`TEMatrix`,
  :class:`PerformanceMatrix` — the matrix containers of paper Sec III.
* :func:`decompose` — TP → (TC, TE) via a chosen RPCA solver.
* :class:`SolveOptions` — the four knobs of a re-calibration solve (solver,
  batch/streaming mode, two stream knobs) and the rules for combining
  them, checked once at construction.
* :func:`rpca_ialm` (the paper's IALM, the one relaxed RPCA solver),
  :func:`row_constant_decomposition` — the individual solvers.
* :func:`certify` — primal residual and relative duality gap of an RPCA
  answer, from its output alone.
* :class:`SVTKernel`, :data:`SVD_BACKENDS` — the SVD kernel layer under
  the solvers, chosen by shape; :class:`RankPredictor`, the
  rank heuristic the streaming fold bounds its subspace with.
* :class:`ElementwiseKernel` — the cache-blocked elementwise kernel for
  the step recurrences of the solver loops.
* :func:`relative_error_norm` — ``Norm(N_E)``, the effectiveness predictor.
* :class:`MaintenanceController` — paper Algorithm 1 (adaptive update
  maintenance driven by expected-vs-real performance feedback).
* :class:`DecompositionEngine` — rolling-window cache + re-calibration
  + instrumentation, for long-running Algorithm-1 loops;
  masked windows (partial snapshots) complete through mask-aware RPCA.
* :class:`StreamingDecomposer`, :class:`StreamingConfig`,
  :data:`ENGINE_MODES` — the online/streaming RPCA path
  (``mode="streaming"``): O(row) snapshot folds with a certified fallback
  to the batch oracle.
* :class:`DegradedModeController`, :class:`ResilienceConfig`,
  :class:`HealthState` — the HEALTHY → DEGRADED → HOLDOVER machine that
  keeps Algorithm 1 serving the last good constant component when
  calibration itself fails.
"""

from .matrices import PerformanceMatrix, TPMatrix, TCMatrix, TEMatrix
from .svd_ops import (
    soft_threshold,
    singular_value_threshold,
    spectral_norm,
    truncated_svd,
)
from .kernels import (
    SVD_BACKENDS,
    RankPredictor,
    SolveWorkspace,
    SVTKernel,
    validate_backend,
)
from .elementwise import ElementwiseKernel
from .result import Certificate, SolverResult, certify
from .ialm import rpca_ialm, IALMResult
from .row_constant import row_constant_decomposition
from .solvers import (
    solve_rpca,
    available_solvers,
    register_solver,
    resolve_solver,
    solver_spec,
    SolverSpec,
)
from .options import SolveOptions
from .decompose import (
    decompose,
    decomposition_from_result,
    Decomposition,
    constant_row,
)
from .engine import (
    DecompositionEngine,
    TraceWindowSource,
    WindowSource,
)
from .streaming import (
    ENGINE_MODES,
    StreamingConfig,
    StreamingDecomposer,
    StreamState,
    validate_mode,
)
from .metrics import (
    pseudo_l0_norm,
    l1_norm,
    relative_error_norm,
    relative_difference,
    stability_report,
    StabilityReport,
)
from .maintenance import (
    DegradedModeController,
    HealthState,
    HealthTransition,
    MaintenanceController,
    MaintenanceDecision,
    MaintenanceStats,
    ResilienceConfig,
)

__all__ = [
    "PerformanceMatrix",
    "TPMatrix",
    "TCMatrix",
    "TEMatrix",
    "soft_threshold",
    "singular_value_threshold",
    "spectral_norm",
    "truncated_svd",
    "SVD_BACKENDS",
    "ElementwiseKernel",
    "RankPredictor",
    "SolveWorkspace",
    "SVTKernel",
    "validate_backend",
    "SolverResult",
    "Certificate",
    "certify",
    "rpca_ialm",
    "IALMResult",
    "row_constant_decomposition",
    "solve_rpca",
    "available_solvers",
    "register_solver",
    "resolve_solver",
    "solver_spec",
    "SolverSpec",
    "decompose",
    "decomposition_from_result",
    "Decomposition",
    "constant_row",
    "DecompositionEngine",
    "SolveOptions",
    "TraceWindowSource",
    "WindowSource",
    "ENGINE_MODES",
    "StreamingConfig",
    "StreamingDecomposer",
    "StreamState",
    "validate_mode",
    "pseudo_l0_norm",
    "l1_norm",
    "relative_error_norm",
    "relative_difference",
    "stability_report",
    "StabilityReport",
    "MaintenanceController",
    "MaintenanceDecision",
    "MaintenanceStats",
    "HealthState",
    "HealthTransition",
    "ResilienceConfig",
    "DegradedModeController",
]
