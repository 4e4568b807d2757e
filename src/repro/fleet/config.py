"""Fleet configuration: one frozen dataclass, canonical v1 names.

``FleetConfig`` extends :class:`~repro.runtime.config.SessionConfig` and
follows the v1.1 naming convention shared with
:class:`~repro.api.SolveConfig` and :class:`~repro.api.SessionConfig`:
``n_workers`` (never ``workers``), ``window`` (never ``time_step`` /
``nsnap`` / ``n_snapshots``), ``threshold`` (never ``thresh``). As of
v1.1 the legacy spellings are gone everywhere: the
:func:`repro.api.run_fleet` facade raises ``TypeError`` (with a
did-you-mean hint) instead of remapping them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..cloudsim.trace import CalibrationTrace
from ..errors import ValidationError
from ..runtime.config import SessionConfig

__all__ = ["ClusterSpec", "FleetConfig", "ON_ERROR_POLICIES"]

#: Valid values for :attr:`FleetConfig.on_error`.
ON_ERROR_POLICIES = ("raise", "degrade")


@dataclass(frozen=True)
class ClusterSpec:
    """One virtual cluster the fleet serves.

    Attributes
    ----------
    name:
        Unique fleet-wide identifier; also names the cluster's checkpoint
        directory under the fleet root.
    trace:
        The cluster's calibration trace (its ground truth). The scheduler
        copies it into a shared-memory block once; workers map views of
        that block instead of receiving pickled copies.
    operations:
        Per-cluster override of :attr:`FleetConfig.operations`; ``None``
        uses the fleet-wide value.
    """

    name: str
    trace: CalibrationTrace
    operations: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("cluster name must be a non-empty string")
        if any(sep in self.name for sep in (os.sep, "\x00")) or self.name in (
            ".",
            "..",
        ):
            raise ValidationError(
                f"cluster name {self.name!r} must be usable as a directory name"
            )
        if self.operations is not None and int(self.operations) < 1:
            raise ValidationError("operations must be >= 1 or None")


@dataclass(frozen=True)
class FleetConfig(SessionConfig):
    """How the fleet scheduler runs many clusters concurrently.

    The solve and session fields come from
    :class:`~repro.runtime.config.SessionConfig` (and through it from
    :class:`~repro.core.options.SolveOptions`), apply to every cluster's
    session and are checked there. Streaming and detector state travel
    inside each session capsule, so they survive worker migration and
    SIGKILL-resume bit-identically. The fleet's own fields:

    Attributes
    ----------
    n_workers:
        Worker processes in the pool.
    operations:
        Operations to run per cluster (unless a :class:`ClusterSpec`
        overrides it).
    op:
        Collective executed at each operation.
    batch_size:
        Operations per scheduler tick: the unit of work shipped to a
        worker. Larger batches amortize the capsule round-trip; smaller
        ones re-balance stragglers sooner. For sweeps
        (:meth:`~repro.fleet.FleetScheduler.run_sweep`) it is also the
        shard width: how many same-shape cluster windows travel to a
        worker in one shared stack block and solve there one after another.
    queue_depth:
        Bounded backlog beyond the workers themselves. The task queue
        holds at most ``n_workers + queue_depth`` entries, so a scheduler
        racing ahead of slow workers blocks (backpressure) instead of
        buffering the whole fleet's plan in memory.
    checkpoint_root:
        When set, every completed batch's capsule is written as a
        checkpoint under ``checkpoint_root/<cluster name>/`` — one
        directory per cluster under one fleet root — and a
        ``fleet.json`` manifest is written at the root.
    keep_checkpoints:
        Per-cluster checkpoint retention (see
        :class:`~repro.persistence.CheckpointStore`).
    on_error:
        What to do when a task exhausts its retry budget. ``"raise"``
        (default) aborts the run with a :class:`~repro.errors.FleetError`
        — the historical behavior. ``"degrade"`` quarantines the sick
        cluster (or sweep shard) into the report with a per-cluster
        ``status`` and traceback and keeps serving every healthy cluster;
        see ``docs/fleet_failures.md``.
    max_task_retries:
        Extra attempts per task after the first one fails (worker-side
        exception or deadline). Deterministic replay from the cluster's
        last capsule makes a retried task bit-identical to a never-failed
        one, so retries never change results — only whether they arrive.
    retry_backoff_s:
        Base delay before a task retry; doubles per failed attempt of the
        same task (capped at 30 s). ``0`` retries immediately.
    max_worker_restarts:
        Fleet-wide budget of worker-process respawns per run. A worker
        that dies (crash, OOM-kill, SIGKILL) is replaced while budget
        remains and its in-flight task is requeued from the scheduler's
        last capsule; past the budget the pool just shrinks, and the run
        fails only when no live worker is left with work still pending.
    task_timeout_s:
        Optional per-attempt deadline, measured from the moment a worker
        picks the attempt up (its ``TaskStarted`` ack), so time spent
        queued behind another task does not count. A timed-out attempt's
        worker is killed (and respawned within budget) and the attempt
        counts against ``max_task_retries``; attempts still queued on that
        worker are requeued uncharged. ``None`` disables deadlines.
    """

    n_workers: int = 2
    operations: int = 60
    op: str = "broadcast"
    batch_size: int = 8
    queue_depth: int = 2
    checkpoint_root: str | None = None
    keep_checkpoints: int = 3
    on_error: str = "raise"
    max_task_retries: int = 2
    retry_backoff_s: float = 0.05
    max_worker_restarts: int = 3
    task_timeout_s: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("n_workers", "operations", "batch_size", "keep_checkpoints"):
            if int(getattr(self, name)) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if int(self.queue_depth) < 0:
            raise ValidationError("queue_depth must be >= 0")
        if self.on_error not in ON_ERROR_POLICIES:
            raise ValidationError(
                f"on_error must be one of {ON_ERROR_POLICIES}, "
                f"got {self.on_error!r}"
            )
        for name in ("max_task_retries", "max_worker_restarts"):
            if int(getattr(self, name)) < 0:
                raise ValidationError(f"{name} must be >= 0")
        if float(self.retry_backoff_s) < 0:
            raise ValidationError("retry_backoff_s must be >= 0")
        if self.task_timeout_s is not None and float(self.task_timeout_s) <= 0:
            raise ValidationError("task_timeout_s must be > 0 or None")

    @property
    def max_inflight(self) -> int:
        """Bound on dispatched-but-unfinished tasks (the backpressure cap)."""
        return int(self.n_workers) + int(self.queue_depth)
