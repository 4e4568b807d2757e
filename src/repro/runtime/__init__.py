"""Runtime: the paper's Algorithm 1 as a stateful session.

:class:`TraceSession` owns everything a user of the approach needs at run
time — the calibration window, the current decomposition, the maintenance
controller and the overhead accounting — and exposes collective operations
and task mapping against the live network, re-calibrating itself when the
expected-vs-real feedback says the constant component went stale.
"""

from .config import SessionConfig
from .session import (
    OperationRecord,
    OperationSpec,
    SessionCapsule,
    SessionStats,
    TraceSession,
)

__all__ = [
    "TraceSession",
    "SessionConfig",
    "OperationRecord",
    "OperationSpec",
    "SessionCapsule",
    "SessionStats",
]
