"""repro — reproduction of "Finding Constant from Change: Revisiting Network
Performance Aware Optimizations on IaaS Clouds" (Gong, He & Li, SC 2014).

The package decouples the *constant* component of a virtual cluster's
dynamic network performance from its transient *error* component using
Robust PCA, uses the constant component to drive classic network-
performance-aware optimizations (FNF collective trees, greedy topology
mapping), and uses the error component's relative norm to predict whether
those optimizations will pay off.

Quick start
-----------
>>> from repro import TraceConfig, generate_trace, decompose
>>> trace = generate_trace(TraceConfig(n_machines=8, n_snapshots=12), seed=0)
>>> tp = trace.tp_matrix(nbytes=8 << 20)
>>> dec = decompose(tp)
>>> dec.report.verdict in {"stable", "moderately-stable", "dynamic", "too-dynamic"}
True

Sub-packages
------------
core
    RPCA solvers, TP/TC/TE matrices, Norm(N_E), Algorithm-1 maintenance,
    and the :class:`DecompositionEngine`.
observability
    Counters, timers and per-solve span records; ``--profile`` plumbing.
netmodel
    The α-β transfer-time model.
cloudsim
    EC2 substitute: placement, bands, dynamics, trace synthesis, noise.
netsim
    ns-2 substitute: tree topology, max-min fair flow simulation, probes.
calibration
    Pairing schedule, calibrator, overhead model.
faults
    Seeded fault models (probe loss, stragglers, corruption, VM/rack
    outages) and injectors for traces and live substrates.
collectives
    Binomial/FNF trees and the collective execution model.
mapping
    Task graphs, greedy/ring mapping, evaluation.
fleet
    Parallel multi-cluster decomposition service: shared-memory trace
    transport, process-pool scheduling, deterministic per-cluster results.
strategies
    The four comparison arms.
apps
    N-body and CG with real numerics and communication profiles.
experiments
    One driver per paper figure (Figs 4–13).
"""

from .core import (
    PerformanceMatrix,
    TPMatrix,
    TCMatrix,
    TEMatrix,
    decompose,
    Decomposition,
    DecompositionEngine,
    SolverResult,
    SVD_BACKENDS,
    spectral_norm,
    rpca_ialm,
    row_constant_decomposition,
    solve_rpca,
    available_solvers,
    register_solver,
    solver_spec,
    relative_error_norm,
    SolveOptions,
    StreamingConfig,
    MaintenanceController,
    MaintenanceDecision,
    HealthState,
    ResilienceConfig,
    DegradedModeController,
)
from .observability import Instrumentation, SolveSpan, instrumented
from .cloudsim import TraceConfig, generate_trace, CalibrationTrace
from .cloudsim.io import save_trace, load_trace, load_trace_csv
from .faults import (
    FaultModel,
    ProbeLoss,
    ProbeStraggler,
    CorruptedReadings,
    VMOutage,
    RackOutage,
    FaultySubstrate,
    inject_faults,
    materialize_faults,
    parse_fault_spec,
)
from .collectives import binomial_tree, fnf_tree, CommTree, run_collective
from .runtime import OperationSpec, SessionCapsule, TraceSession
from .fleet import (
    ClusterReport,
    ClusterSpec,
    FleetConfig,
    FleetReport,
    FleetScheduler,
    FleetSweepReport,
    SweepClusterResult,
)
from .api import (
    SessionConfig,
    SolveConfig,
    open_session,
    run_fleet,
    solve,
    sweep_fleet,
)
from .strategies import (
    BaselineStrategy,
    HeuristicStrategy,
    RPCAStrategy,
    TopologyAwareStrategy,
)

__version__ = "1.0.0"

__all__ = [
    "PerformanceMatrix",
    "TPMatrix",
    "TCMatrix",
    "TEMatrix",
    "decompose",
    "Decomposition",
    "DecompositionEngine",
    "SolverResult",
    "SVD_BACKENDS",
    "spectral_norm",
    "rpca_ialm",
    "row_constant_decomposition",
    "solve_rpca",
    "available_solvers",
    "register_solver",
    "solver_spec",
    "relative_error_norm",
    "SolveOptions",
    "StreamingConfig",
    "Instrumentation",
    "SolveSpan",
    "instrumented",
    "MaintenanceController",
    "MaintenanceDecision",
    "HealthState",
    "ResilienceConfig",
    "DegradedModeController",
    "FaultModel",
    "ProbeLoss",
    "ProbeStraggler",
    "CorruptedReadings",
    "VMOutage",
    "RackOutage",
    "FaultySubstrate",
    "inject_faults",
    "materialize_faults",
    "parse_fault_spec",
    "TraceConfig",
    "generate_trace",
    "CalibrationTrace",
    "save_trace",
    "load_trace",
    "load_trace_csv",
    "TraceSession",
    "OperationSpec",
    "SessionCapsule",
    "solve",
    "open_session",
    "run_fleet",
    "sweep_fleet",
    "SolveConfig",
    "SessionConfig",
    "FleetConfig",
    "ClusterSpec",
    "FleetScheduler",
    "FleetReport",
    "ClusterReport",
    "FleetSweepReport",
    "SweepClusterResult",
    "binomial_tree",
    "fnf_tree",
    "CommTree",
    "run_collective",
    "BaselineStrategy",
    "HeuristicStrategy",
    "RPCAStrategy",
    "TopologyAwareStrategy",
    "__version__",
]
