"""Worker-process side of the fleet scheduler.

A worker is a plain loop over a task queue. Each :class:`BatchTask` names a
cluster, carries a batch of :class:`~repro.runtime.session.OperationSpec`\\ s
and either the cluster's :class:`~repro.runtime.session.SessionCapsule`
(later batches) or the session constructor kwargs (first batch). The trace
itself never rides along — only a :class:`TraceBlockDescriptor`, which the
worker maps once per cluster and caches for the rest of its life.

Workers are deliberately stateless about *sessions*: the capsule goes back
to the scheduler with every :class:`BatchResult`, so the next batch for a
cluster can land on any worker. Because the capsule round-trip is lossless
(bit-identical resume), which worker serves which batch cannot change the
cluster's results — only its wall-clock.

Supervision protocol: every task carries a scheduler-assigned ``attempt``
id, echoed back in the result. A worker announces each pickup with a
:class:`TaskStarted` ack on its result pipe *before* doing the work, so
the scheduler knows which worker owns which attempt — that attribution is
what lets it requeue exactly the lost task when a worker dies, and kill
exactly the stuck worker when an attempt blows its deadline. A result whose
attempt id is no longer the cluster's current one is stale (the task was
already requeued to another worker) and the scheduler discards it.

A :class:`SweepTask` is the other kind of work: one cluster's trailing
TP-matrix window, carried in the task itself, solved cold once.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field
from typing import Any

from ..cloudsim.trace import CalibrationTrace
from ..core.decompose import decomposition_from_result
from ..core.matrices import TPMatrix
from ..core.options import SolveOptions
from ..core.solvers import solve_rpca
from ..observability import Instrumentation, instrumented
from ..runtime.session import OperationSpec, SessionCapsule, TraceSession
from ..utils.blas import share_blas_pool
from .report import SweepClusterResult
from .shm import SharedTraceBlock, TraceBlockDescriptor

__all__ = [
    "BatchResult",
    "BatchTask",
    "SweepResult",
    "SweepTask",
    "TaskStarted",
    "solve_window",
    "worker_main",
]


@dataclass(frozen=True, slots=True)
class TaskStarted:
    """Pickup ack: worker ``worker_pid`` began executing attempt ``attempt``.

    Sent on the result pipe before the work itself, so the scheduler can
    attribute in-flight attempts to worker pids for supervision (requeue on
    death, targeted kill on deadline).
    """

    attempt: int
    worker_pid: int


@dataclass(frozen=True, slots=True)
class BatchTask:
    """One scheduler tick's worth of work for one cluster."""

    cluster: str
    descriptor: TraceBlockDescriptor
    specs: tuple[OperationSpec, ...]
    capsule: SessionCapsule | None = None
    session_kwargs: dict[str, Any] = field(default_factory=dict)
    attempt: int = 0


@dataclass(frozen=True, slots=True)
class BatchResult:
    """What a worker sends back after (attempting) a batch."""

    cluster: str
    capsule: SessionCapsule | None
    operations: int
    worker_pid: int
    error: str | None = None
    attempt: int = 0


@dataclass(frozen=True, slots=True)
class SweepTask:
    """One cluster's share of a sweep: its trailing window, solved cold.

    ``tp`` rides in the task pickle. The scheduler builds it from the
    cluster's trace at every dispatch, so a retried attempt solves the
    same window bit for bit.
    """

    cluster: str
    tp: TPMatrix
    solver: str
    attempt: int = 0


@dataclass(frozen=True, slots=True)
class SweepResult:
    """What a worker sends back after (attempting) one cluster's window.

    ``instrumentation`` carries the worker-side sink's ``state_dict()`` —
    the window's solve span plus the kernel counters accumulated while it
    solved — for the scheduler to fold into the fleet sink via
    :meth:`~repro.observability.Instrumentation.merge`.
    """

    cluster: str
    result: SweepClusterResult | None
    worker_pid: int
    instrumentation: dict[str, Any]
    error: str | None = None
    attempt: int = 0


def solve_window(
    name: str, tp: TPMatrix, *, solver: str = SolveOptions.solver
) -> SweepClusterResult:
    """Solve one cluster's window: a cold solve, as ``decompose`` runs it.

    The one code path both sweep modes share: the serial reference
    (:meth:`~repro.fleet.FleetScheduler.run_sweep_serial`) calls it
    in-process, workers call it on the window a :class:`SweepTask`
    carries. Each call is a cold :func:`~repro.core.solvers.solve_rpca`,
    so ``P_D`` equals a single ``decompose(tp, solver=solver)`` bit for
    bit, whatever the worker count or placement.
    """
    kwargs = {} if tp.mask is None else {"mask": tp.mask}
    res = solve_rpca(tp.data, solver=solver, context="fleet-sweep", **kwargs)
    dec = decomposition_from_result(tp, res, solver=solver)
    return SweepClusterResult(
        name=name,
        constant_row=dec.constant.row,
        norm_ne=dec.norm_ne,
        verdict=dec.report.verdict,
        rank=res.rank,
        iterations=res.iterations,
        converged=res.converged,
        residual=res.residual,
    )


def _run_sweep_task(task: SweepTask, pid: int) -> SweepResult:
    sink = Instrumentation("sweep-worker")
    result, error = None, None
    try:
        with instrumented(sink):
            result = solve_window(task.cluster, task.tp, solver=task.solver)
    except Exception:
        error = traceback.format_exc()
    return SweepResult(
        cluster=task.cluster,
        result=result,
        worker_pid=pid,
        instrumentation=sink.state_dict(),
        error=error,
        attempt=task.attempt,
    )


def _run_batch(
    task: BatchTask, traces: dict[str, CalibrationTrace]
) -> SessionCapsule:
    trace = traces[task.descriptor.name]
    if task.capsule is None:
        session = TraceSession(trace, **task.session_kwargs)
    else:
        session = TraceSession.from_capsule(trace, task.capsule)
    for spec in task.specs:
        session.step(spec)
    session.instrumentation.count("fleet.worker.batches")
    return session.capture_capsule()


def worker_main(task_queue: Any, result_conn: Any, n_workers: int) -> None:
    """Worker loop: run batch and sweep tasks until the ``None`` sentinel.

    Runs in a child process, one of *n_workers*, which first shrinks its
    BLAS pool to its share of the CPUs
    (:func:`~repro.utils.blas.share_blas_pool`). Every message goes to
    ``result_conn``, the write end of a pipe this worker alone holds;
    ``send`` writes it from this thread, so a kill can tear at most this
    worker's own stream. Any exception inside a task is caught and shipped
    back as text in the result's ``error`` — exception *objects* don't
    survive process boundaries reliably, and a poisoned cluster must not
    take the worker (and every other cluster queued behind it) down.
    """
    pid = os.getpid()
    share_blas_pool(n_workers)
    blocks: dict[str, SharedTraceBlock] = {}
    traces: dict[str, CalibrationTrace] = {}
    try:
        while True:
            task = task_queue.get()
            if task is None:
                break
            result_conn.send(TaskStarted(attempt=task.attempt, worker_pid=pid))
            if isinstance(task, SweepTask):
                result_conn.send(_run_sweep_task(task, pid))
                continue
            try:
                if task.descriptor.name not in blocks:
                    block = SharedTraceBlock.attach(task.descriptor)
                    blocks[task.descriptor.name] = block
                    traces[task.descriptor.name] = block.trace()
                capsule = _run_batch(task, traces)
                result = BatchResult(
                    cluster=task.cluster,
                    capsule=capsule,
                    operations=len(task.specs),
                    worker_pid=pid,
                    attempt=task.attempt,
                )
            except BaseException:
                result = BatchResult(
                    cluster=task.cluster,
                    capsule=None,
                    operations=0,
                    worker_pid=pid,
                    error=traceback.format_exc(),
                    attempt=task.attempt,
                )
            result_conn.send(result)
    finally:
        result_conn.close()
        for block in blocks.values():
            block.close()
