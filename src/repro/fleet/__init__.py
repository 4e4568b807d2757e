"""Fleet-scale parallel decomposition service.

Runs many independent per-cluster calibration/maintenance sessions (paper
Algorithm 1) concurrently across a process pool, with traces shipped
zero-copy through shared memory and session state round-tripped between
scheduler and workers as picklable session capsules. See
:class:`FleetScheduler` for the scheduling contract (bounded queue,
backpressure, round-robin fairness, deterministic per-cluster results).
"""

from .config import ClusterSpec, FleetConfig, ON_ERROR_POLICIES
from .report import (
    CLUSTER_STATUSES,
    ClusterReport,
    FleetReport,
    FleetSweepReport,
    SweepClusterResult,
)
from .scheduler import FleetScheduler
from .shm import SharedTraceBlock, TraceBlockDescriptor
from .worker import (
    BatchResult,
    BatchTask,
    SweepResult,
    SweepTask,
    TaskStarted,
    solve_window,
    worker_main,
)

__all__ = [
    "BatchResult",
    "BatchTask",
    "CLUSTER_STATUSES",
    "ClusterReport",
    "ClusterSpec",
    "FleetConfig",
    "FleetReport",
    "FleetScheduler",
    "FleetSweepReport",
    "ON_ERROR_POLICIES",
    "SharedTraceBlock",
    "SweepClusterResult",
    "SweepResult",
    "SweepTask",
    "TaskStarted",
    "TraceBlockDescriptor",
    "solve_window",
    "worker_main",
]
