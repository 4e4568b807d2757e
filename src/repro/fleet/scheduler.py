"""Fleet-scale parallel decomposition scheduling.

One :class:`FleetScheduler` drives many independent Algorithm-1 sessions —
one per virtual cluster — concurrently across a pool of worker processes:

* Each cluster's trace is copied into a shared-memory block **once**
  (:class:`~repro.fleet.shm.SharedTraceBlock`); workers map views. The only
  per-batch IPC is the operation specs going out and the session capsule
  coming back.
* Work is shipped in batches of ``batch_size`` operations, at most
  ``n_workers + queue_depth`` in flight fleet-wide (backpressure, not
  unbounded buffering). Each worker reads from its **own** task queue —
  the scheduler assigns to the least-loaded live worker — and writes to
  its **own** result pipe, so a worker killed mid-``get()`` or mid-write
  cannot wedge its siblings on a shared lock or a torn shared stream.
* At most one batch per cluster is in flight at a time (the capsule is the
  cluster's single warm-state token), and completed clusters re-enter the
  ready queue at the **back**. Together these give round-robin fairness: a
  straggler cluster — say one whose network is too dynamic and re-solves
  every window — occupies at most one worker while the rest of the fleet
  flows around it.
* Results are deterministic by construction: each cluster's operations run
  sequentially in order, and the capsule round-trip is lossless, so per-
  cluster ``P_D`` is bit-identical to a serial run regardless of worker
  count or which worker served which batch. :meth:`FleetScheduler.run_serial`
  is that reference run (also the throughput baseline).

Self-healing (see ``docs/fleet_failures.md``): the scheduler supervises its
workers. A worker that dies mid-task is respawned (bounded by
``max_worker_restarts``) and the lost task is requeued from the cluster's
last capsule — deterministic replay makes the retried task bit-identical to
a never-failed one, so a surviving report matches a failure-free run
exactly. Worker-side exceptions are retried per task with capped attempts
and exponential backoff; ``task_timeout_s`` puts a deadline on each attempt
(the stuck worker is killed and replaced); and ``on_error="degrade"``
quarantines a cluster that exhausts its retries into the report with a
per-cluster ``status`` instead of aborting the whole run.
"""

from __future__ import annotations

import heapq
import itertools
import json
import multiprocessing as mp
import os
import time
import traceback
from multiprocessing import connection as mp_connection
from multiprocessing import resource_tracker
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..core.panels import thread_budget
from ..errors import FleetError, ValidationError
from ..observability import Instrumentation, instrumented
from ..persistence import CheckpointStore
from ..runtime.session import OperationSpec, SessionCapsule, TraceSession
from .config import ClusterSpec, FleetConfig
from .report import ClusterReport, FleetReport, FleetSweepReport, SweepClusterResult
from .shm import SharedStackBlock, SharedTraceBlock
from .worker import (
    BatchTask,
    SweepTask,
    TaskStarted,
    solve_shard,
    worker_main,
)

__all__ = ["FleetScheduler", "SweepShard"]

# A timed-out or lost task's retry backoff never exceeds this.
_MAX_BACKOFF_S = 30.0
# Supervision cadence: the longest a dead worker or blown deadline can go
# unnoticed, whether the result pipes are quiet or busy.
_POLL_S = 0.1


@dataclass
class _ClusterState:
    """Scheduler-side bookkeeping for one cluster, a unit of work of a run."""

    spec: ClusterSpec
    remaining: int
    capsule: SessionCapsule | None = None
    batches: int = 0
    store: CheckpointStore | None = None
    block: SharedTraceBlock | None = None  # created at first dispatch
    attempt: int = -1  # id of the current (most recent) dispatched attempt
    failures: int = 0  # failed attempts of the current batch; reset on success
    retries: int = 0  # total task retries over the run
    finished: bool = False
    status: str = "ok"
    error: str | None = None
    # Arrays of the last checkpoint saved to ``store``.
    saved: dict[str, np.ndarray] = field(default_factory=dict)

    # What an attempt is called when it blows its deadline.
    noun = "task"

    def describe(self) -> str:
        return self.spec.name

    def fleet_error(self, error_text: str, kind: str) -> FleetError:
        return FleetError(
            f"cluster {self.spec.name!r} failed after {self.failures} attempt(s) "
            f"({kind})",
            cluster=self.spec.name,
            worker_traceback=error_text,
        )


def _as_saved(
    saved: dict[str, np.ndarray], arrays: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """*arrays* frozen, each one equal to the last save's array of its name
    replaced by that object.

    Capsules reach the scheduler unpickled, as new writeable arrays, but a
    :class:`~repro.persistence.CheckpointStore` names a segment written
    before again only for the same read-only objects. Without this, every
    save of a cluster rewrote its solver-state segment and each sealed
    history block, however little had changed.
    """
    out = {}
    for name, arr in arrays.items():
        old = saved.get(name)
        if (
            old is not None
            and old.dtype == arr.dtype
            and old.shape == arr.shape
            and np.array_equal(old, arr)
        ):
            out[name] = old
        else:
            arr.setflags(write=False)
            out[name] = arr
    return out


@dataclass
class _ShardState:
    """Scheduler-side bookkeeping for one shard, a unit of work of a sweep."""

    shard: "SweepShard"
    block: SharedStackBlock | None = None  # created at first dispatch
    attempt: int = -1
    failures: int = 0
    retries: int = 0
    finished: bool = False

    noun = "shard"

    def describe(self) -> str:
        return f"shard {self.shard.index} ({', '.join(self.shard.names)})"

    def fleet_error(self, error_text: str, kind: str) -> FleetError:
        return FleetError(
            f"sweep shard {self.shard.index} (clusters "
            f"{', '.join(self.shard.names)}) failed after "
            f"{self.failures} attempt(s) ({kind})",
            worker_traceback=error_text,
        )


def _release(state: _ClusterState | _ShardState) -> None:
    """Unlink the shared-memory block a unit holds, if any."""
    if state.block is not None:
        state.block.unlink()
        state.block = None


@dataclass
class _Inflight:
    """One dispatched-but-unfinished attempt.

    ``key`` is the unit's: a cluster name (runs) or shard index (sweeps).
    ``started_at`` and ``worker_pid`` are filled in when the worker's
    :class:`TaskStarted` ack arrives: the deadline runs from pickup, so an
    attempt still waiting in a worker's queue cannot time out. (Task→worker
    attribution itself lives in the pool's assignment map, which is
    authoritative even when a worker dies before its ack flushes.)
    """

    key: object
    started_at: float | None = None
    worker_pid: int | None = None


@dataclass(frozen=True)
class SweepShard:
    """One unit of sweep work: up to ``batch_size`` same-shape cluster windows.

    Produced by :meth:`FleetScheduler.plan_sweep`; ``tps[i]`` is cluster
    ``names[i]``'s trailing calibration window.
    """

    index: int
    names: tuple[str, ...]
    tps: tuple[object, ...]  # TPMatrix per cluster, shape-homogeneous


class _Worker:
    """One worker process, its private task queue and result pipe, and attempts."""

    __slots__ = ("proc", "queue", "results", "attempts")

    def __init__(self, proc: mp.process.BaseProcess, queue, results) -> None:
        self.proc = proc
        self.queue = queue
        self.results = results  # read end; None once it reached end-of-file
        self.attempts: set[int] = set()


class _WorkerPool:
    """A supervised pool of fleet worker processes.

    Each worker reads from its **own** task queue and writes to its **own**
    result pipe (the scheduler is the other end of both). That topology is
    what makes SIGKILL survivable: a worker killed while blocked in
    ``get()`` dies holding only its private queue's reader lock, and one
    killed partway through writing a message tears only its own pipe,
    which the scheduler then reads as end-of-file. The corpse cannot wedge
    any sibling — the failure mode a shared queue has, where a worker that
    dies holding the shared write lock blocks every other worker's result.
    It also makes task→worker attribution exact: the pool knows every
    attempt a dead worker held, with no ack protocol in the loop.

    The scheduler drives supervision by calling :meth:`poll` periodically
    and consuming buffered death records with :meth:`take_deaths`. A dead
    worker is replaced while the fleet-wide restart budget lasts
    (deliberate kills — blown deadlines — are always replaced and never
    charged against the budget); past the budget the pool just shrinks.
    """

    def __init__(
        self, ctx, *, max_restarts: int, sink: Instrumentation, threads: int = 1
    ) -> None:
        self._ctx = ctx
        self._max_restarts = int(max_restarts)
        self._sink = sink
        self._threads = int(threads)  # each worker's solve thread budget
        self.workers: list[_Worker] = []
        self.restarts = 0
        self._spawned = 0
        self._expected_kills: set[int] = set()
        self._by_attempt: dict[int, _Worker] = {}
        self._deaths: list[tuple[int | None, int | None, bool, tuple[int, ...]]] = []

    def start(self, n: int) -> None:
        for _ in range(n):
            self._spawn()

    def _spawn(self) -> None:
        task_queue = self._ctx.Queue()
        results, sender = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=worker_main,
            args=(task_queue, sender, self._threads),
            daemon=True,
            name=f"repro-fleet-worker-{self._spawned}",
        )
        self._spawned += 1
        proc.start()
        # The worker must hold the only write end, so that its death reads
        # as end-of-file here.
        sender.close()
        self.workers.append(_Worker(proc, task_queue, results))

    @property
    def n_alive(self) -> int:
        return sum(1 for w in self.workers if w.proc.is_alive())

    def assign(self, attempt: int, task) -> None:
        """Dispatch ``task`` to the live worker with the lightest load."""
        live = [w for w in self.workers if w.proc.is_alive()]
        if not live:
            self.poll()
            live = [w for w in self.workers if w.proc.is_alive()]
            if not live:
                raise FleetError(
                    "no live fleet workers left to dispatch to (restart "
                    f"budget {self._max_restarts} exhausted)"
                )
        worker = min(live, key=lambda w: (len(w.attempts), w.proc.pid))
        worker.attempts.add(attempt)
        self._by_attempt[attempt] = worker
        worker.queue.put(task)

    def complete(self, attempt: int) -> None:
        """Forget an attempt whose result arrived (accepted or stale)."""
        worker = self._by_attempt.pop(attempt, None)
        if worker is not None:
            worker.attempts.discard(attempt)

    def receive(self, timeout: float) -> list:
        """Wait up to ``timeout`` seconds for worker messages.

        Returns one message per worker pipe that had one ready (empty on
        timeout). A pipe at end-of-file — its worker died, possibly partway
        through a message — is closed and left for :meth:`poll` to reap.
        """
        pipes = {w.results: w for w in self.workers if w.results is not None}
        messages = []
        for conn in mp_connection.wait(list(pipes), timeout):
            try:
                messages.append(conn.recv())
            except (EOFError, OSError):
                conn.close()
                pipes[conn].results = None
        return messages

    def poll(self) -> None:
        """Reap dead workers, respawn within policy, buffer death records.

        Each record carries the exact attempts the corpse held; its
        orphaned private queue and pipe are dropped with it, unread
        messages included (those attempts are requeued as lost).
        """
        dead = [w for w in self.workers if not w.proc.is_alive()]
        for worker in dead:
            self.workers.remove(worker)
            pid = worker.proc.pid
            expected = pid in self._expected_kills
            self._expected_kills.discard(pid)
            lost = tuple(sorted(worker.attempts))
            for attempt in worker.attempts:
                self._by_attempt.pop(attempt, None)
            worker.attempts.clear()
            worker.queue.close()
            if worker.results is not None:
                worker.results.close()
            self._deaths.append((pid, worker.proc.exitcode, expected, lost))
            if expected or self.restarts < self._max_restarts:
                if not expected:
                    self.restarts += 1
                self._sink.count("fleet.worker.restarts")
                self._spawn()

    def take_deaths(self) -> list[tuple[int | None, int | None, bool, tuple[int, ...]]]:
        deaths, self._deaths = self._deaths, []
        return deaths

    def kill_attempt_owner(self, attempt: int) -> None:
        """SIGKILL the worker holding ``attempt`` (deadline enforcement)."""
        worker = self._by_attempt.get(attempt)
        if worker is not None and worker.proc.is_alive():
            self._expected_kills.add(worker.proc.pid)
            worker.proc.kill()

    def stop(self) -> None:
        """Graceful teardown: one sentinel per worker's own queue, then join."""
        for worker in self.workers:
            worker.queue.put(None)
        for worker in self.workers:
            worker.proc.join(timeout=30.0)

    def shutdown(self) -> None:
        """Escalating teardown: ``terminate -> join(5) -> kill -> join``.

        Safe to call after :meth:`stop` (already-exited workers are
        no-ops); guarantees no worker outlives the run, even one that
        ignores SIGTERM.
        """
        for worker in self.workers:
            if worker.proc.is_alive():
                worker.proc.terminate()
        for worker in self.workers:
            worker.proc.join(timeout=5.0)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join()


class FleetScheduler:
    """Run many clusters' calibration/maintenance loops across a process pool.

    Parameters
    ----------
    clusters:
        The fleet. Cluster names must be unique.
    config:
        Fleet-wide settings; defaults to ``FleetConfig()``.
    instrumentation:
        Fleet-level sink. Per-cluster engine counters, timers and solve
        spans (accumulated worker-side, carried home inside each capsule)
        are merged into it at the end of :meth:`run`, alongside the
        scheduler's own ``fleet.*`` counters — including the self-healing
        set: ``fleet.worker.restarts``, ``fleet.task.retries``,
        ``fleet.task.timeouts``, ``fleet.cluster.quarantined``.
    """

    def __init__(
        self,
        clusters: list[ClusterSpec] | tuple[ClusterSpec, ...],
        config: FleetConfig | None = None,
        *,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        clusters = tuple(clusters)
        if not clusters:
            raise ValidationError("fleet needs at least one cluster")
        names = [c.name for c in clusters]
        if len(set(names)) != len(names):
            raise ValidationError("cluster names must be unique")
        self.clusters = clusters
        self.config = config if config is not None else FleetConfig()
        self.instrumentation = (
            instrumentation if instrumentation is not None else Instrumentation("fleet")
        )
        self._attempt_seq = itertools.count(1)
        self._defer_seq = itertools.count()

    # -- planning ------------------------------------------------------

    def _operations_for(self, spec: ClusterSpec) -> int:
        return int(
            spec.operations if spec.operations is not None else self.config.operations
        )

    def _next_specs(self, state: _ClusterState) -> tuple[OperationSpec, ...]:
        n = min(int(self.config.batch_size), state.remaining)
        return tuple(OperationSpec(op=self.config.op) for _ in range(n))

    def _make_store(self, name: str) -> CheckpointStore | None:
        root = self.config.checkpoint_root
        if root is None:
            return None
        directory = os.path.join(os.fspath(root), name)
        os.makedirs(directory, exist_ok=True)
        return CheckpointStore(directory, keep=self.config.keep_checkpoints)

    def _write_manifest(self) -> None:
        root = self.config.checkpoint_root
        if root is None:
            return
        os.makedirs(root, exist_ok=True)
        manifest = {
            "clusters": sorted(c.name for c in self.clusters),
            "n_workers": self.config.n_workers,
            "window": self.config.window,
            "threshold": self.config.threshold,
            **self.config.to_meta(),
            "op": self.config.op,
            "on_error": self.config.on_error,
            "regime_detector": self.config.regime_detector,
        }
        with open(os.path.join(root, "fleet.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)

    # -- serial reference ---------------------------------------------

    def run_serial(self) -> FleetReport:
        """Run the identical plan in-process, one cluster after another.

        The determinism oracle and the throughput baseline: per-cluster
        results must (and do) match :meth:`run` bit for bit. Under
        ``on_error="degrade"`` a cluster whose session raises is
        quarantined (without retries — the error is deterministic
        in-process) and the rest of the fleet still reports.
        """
        t0 = time.perf_counter()
        cfg = self.config
        kwargs = self.config.session_kwargs()
        reports: dict[str, ClusterReport] = {}
        total_ops = 0
        total_batches = 0
        for spec in self.clusters:
            ops = self._operations_for(spec)
            try:
                session = TraceSession(spec.trace, **kwargs)
                op_spec = OperationSpec(op=self.config.op)
                batches = 0
                for start in range(0, ops, int(self.config.batch_size)):
                    for _ in range(min(int(self.config.batch_size), ops - start)):
                        session.step(op_spec)
                    batches += 1
            except Exception:
                if cfg.on_error != "degrade":
                    raise
                self.instrumentation.count("fleet.cluster.quarantined")
                reports[spec.name] = self._unavailable_report(
                    spec.name, status="quarantined", error=traceback.format_exc()
                )
                continue
            session.instrumentation.count("fleet.worker.batches", batches)
            capsule = session.capture_capsule()
            self.instrumentation.merge(capsule.meta["instrumentation"])
            state = _ClusterState(spec=spec, remaining=0, capsule=capsule,
                                  batches=batches)
            reports[spec.name] = self._cluster_report(spec.name, state)
            total_ops += ops
            total_batches += batches
        elapsed = time.perf_counter() - t0
        self._account(n_workers=1, elapsed=elapsed, ops=total_ops, batches=total_batches)
        return FleetReport(
            clusters=reports,
            n_workers=1,
            elapsed_s=elapsed,
            total_operations=total_ops,
            total_batches=total_batches,
            instrumentation=self.instrumentation.state_dict(),
        )

    # -- parallel run --------------------------------------------------

    def run(self) -> FleetReport:
        """Run the fleet across ``n_workers`` processes; returns the report."""
        cfg = self.config
        t0 = time.perf_counter()
        self._write_manifest()
        kwargs = cfg.session_kwargs()
        states = {
            spec.name: _ClusterState(
                spec=spec,
                remaining=self._operations_for(spec),
                store=self._make_store(spec.name),
            )
            for spec in self.clusters
        }

        def task(name: str, attempt: int) -> BatchTask:
            state = states[name]
            if state.block is None:
                state.block = SharedTraceBlock.create(state.spec.trace)
            return BatchTask(
                cluster=name,
                descriptor=state.block.descriptor,
                specs=self._next_specs(state),
                capsule=state.capsule,
                session_kwargs={} if state.capsule is not None else dict(kwargs),
                attempt=attempt,
            )

        def accept(name: str, result) -> bool:
            state = states[name]
            state.capsule = result.capsule
            state.remaining -= result.operations
            state.batches += 1
            if state.store is not None:
                state.saved = _as_saved(state.saved, result.capsule.arrays)
                state.store.save(state.saved, result.capsule.meta)
            return state.remaining > 0

        def give_up(name: str, error_text: str, kind: str) -> None:
            state = states[name]
            state.status = "quarantined" if kind == "error" else "failed"
            state.error = error_text
            self.instrumentation.count(f"fleet.cluster.{state.status}")

        n_workers = min(int(cfg.n_workers), len(self.clusters))
        self._drive(n_workers, states, task=task, accept=accept, give_up=give_up)

        reports: dict[str, ClusterReport] = {}
        total_ops = 0
        for name, state in states.items():
            if state.capsule is not None:
                self.instrumentation.merge(state.capsule.meta["instrumentation"])
            reports[name] = self._cluster_report(name, state)
            total_ops += reports[name].operations
        total_batches = sum(state.batches for state in states.values())
        elapsed = time.perf_counter() - t0
        self._account(
            n_workers=n_workers, elapsed=elapsed, ops=total_ops, batches=total_batches
        )
        return FleetReport(
            clusters=reports,
            n_workers=n_workers,
            elapsed_s=elapsed,
            total_operations=total_ops,
            total_batches=total_batches,
            instrumentation=self.instrumentation.state_dict(),
        )

    # -- supervision ---------------------------------------------------

    def _drive(
        self,
        n_workers: int,
        units: dict[Any, _ClusterState | _ShardState],
        *,
        task: Callable[[Any, int], Any],
        accept: Callable[[Any, Any], bool],
        give_up: Callable[[Any, str, str], None],
    ) -> None:
        """Work off *units* on a supervised pool of *n_workers* processes.

        The one scheduler loop of :meth:`run` (a unit is a cluster, keyed by
        name, worked off one batch at a time) and :meth:`run_sweep` (a unit
        is a shard, keyed by index). A unit kind supplies three things:
        ``task(key, attempt)`` builds the worker task of the unit's next
        attempt, ``accept(key, result)`` takes a successful result and says
        whether the unit has more work, and ``give_up(key, error_text,
        kind)`` quarantines a unit out of retries under
        ``on_error="degrade"``. Shared-memory blocks the units hold are
        unlinked however the run ends.
        """
        # The workers share this process's CPUs: each gets its share as
        # its solve thread budget (see repro.core.panels).
        pool = _WorkerPool(
            mp.get_context(),
            max_restarts=self.config.max_worker_restarts, sink=self.instrumentation,
            threads=max(1, thread_budget() // n_workers),
        )
        try:
            # The shared-memory resource tracker must exist before the first
            # fork: blocks are created at dispatch, after it, and each forked
            # worker would otherwise spawn its own tracker and "clean up"
            # segments the scheduler still owns.
            resource_tracker.ensure_running()
            pool.start(n_workers)
            self._supervise(units, pool, task, accept, give_up)
            # A run shorter than one supervision tick ends without a heal():
            # reap once more so every death during the run is recorded.
            pool.poll()
            pool.stop()
        finally:
            pool.shutdown()
            for state in units.values():
                _release(state)

    def _supervise(self, units, pool: _WorkerPool, task, accept, give_up) -> None:
        """The supervised loop of :meth:`_drive`: dispatch, drain, heal.

        ``ready`` is a FIFO deque — a unit with more work rejoins at the
        back after each accepted result, so with one attempt in flight per
        unit the fleet round-robins and no cluster can starve another.
        ``deferred`` holds units sleeping out a retry backoff; ``inflight``
        maps attempt ids to dispatched tasks and is the source of truth for
        what is outstanding. Worker deaths requeue the lost attempts,
        deadline violations kill-and-replace the stuck worker, and results
        from superseded attempts are discarded by attempt id.
        """
        cfg = self.config
        ready: deque = deque(sorted(units))
        deferred: list[tuple[float, int, Any]] = []
        inflight: dict[int, _Inflight] = {}
        done = 0

        def dispatch(key) -> None:
            state = units[key]
            attempt = next(self._attempt_seq)
            state.attempt = attempt
            work = task(key, attempt)
            inflight[attempt] = _Inflight(key=key)
            pool.assign(attempt, work)

        def fail(key, error_text: str, *, kind: str) -> None:
            nonlocal done
            state = units[key]
            state.failures += 1
            if state.failures <= cfg.max_task_retries:
                state.retries += 1
                self.instrumentation.count("fleet.task.retries")
                delay = min(
                    float(cfg.retry_backoff_s) * (2 ** (state.failures - 1)),
                    _MAX_BACKOFF_S,
                )
                heapq.heappush(
                    deferred, (time.monotonic() + delay, next(self._defer_seq), key)
                )
                return
            if cfg.on_error != "degrade":
                raise state.fleet_error(error_text, kind)
            give_up(key, error_text, kind)
            state.finished = True
            done += 1

        def heal() -> None:
            # Reap deaths, requeue lost work, enforce deadlines.
            pool.poll()
            deaths = pool.take_deaths()
            lost: set[int] = set()
            for _pid, _code, _expected, attempts in deaths:
                lost.update(a for a in attempts if a in inflight)
            if pool.n_alive == 0:
                # Supervision only runs while work remains, so an empty pool
                # is fatal whether or not this tick saw the deaths itself.
                codes = sorted({code for _pid, code, _exp, _a in deaths}, key=repr)
                stuck = sorted(units[e.key].describe() for e in inflight.values())
                raise FleetError(
                    f"fleet worker(s) exited (exit codes {codes or 'seen earlier'}) "
                    f"with no live workers left and the restart budget "
                    f"({cfg.max_worker_restarts}) exhausted; stuck: "
                    f"{', '.join(stuck) or 'none in flight'}"
                )
            for attempt in sorted(lost):
                # Deterministic replay makes the rerun bit-identical, so a
                # death is not charged as a task retry.
                dispatch(inflight.pop(attempt).key)
            timeout_s = cfg.task_timeout_s
            if timeout_s is not None:
                now = time.monotonic()
                expired = [
                    attempt
                    for attempt, entry in inflight.items()
                    if entry.started_at is not None
                    and now - entry.started_at > float(timeout_s)
                ]
                for attempt in expired:
                    key = inflight.pop(attempt).key
                    self.instrumentation.count("fleet.task.timeouts")
                    # The assigned worker is presumed stuck on this attempt:
                    # kill it (replaced at the next poll, not charged to the
                    # budget) and forget the assignment.
                    pool.kill_attempt_owner(attempt)
                    pool.complete(attempt)
                    state = units[key]
                    fail(
                        key,
                        f"{state.noun} deadline exceeded ({timeout_s}s) on "
                        f"attempt {state.failures + 1}",
                        kind="timeout",
                    )

        last_tick = time.monotonic()
        while done < len(units):
            now = time.monotonic()
            if now - last_tick >= _POLL_S:
                # Supervision runs on a cadence, not only when the pipes are
                # quiet: a steady result stream must not starve death
                # detection or deadline enforcement.
                heal()
                last_tick = now
            while deferred and deferred[0][0] <= now:
                ready.append(heapq.heappop(deferred)[2])
            while ready and len(inflight) < cfg.max_inflight:
                dispatch(ready.popleft())

            timeout = _POLL_S
            if not inflight and deferred:
                timeout = min(_POLL_S, max(0.01, deferred[0][0] - now))
            messages = pool.receive(timeout)
            if not messages:
                heal()
                last_tick = time.monotonic()
                continue

            for msg in messages:
                entry = inflight.get(msg.attempt)
                if isinstance(msg, TaskStarted):
                    if entry is not None:
                        entry.started_at = time.monotonic()
                        entry.worker_pid = msg.worker_pid
                    continue
                pool.complete(msg.attempt)
                if entry is None:
                    # Superseded attempt (requeued after a death or deadline):
                    # the current attempt's result is the one that counts.
                    self.instrumentation.count("fleet.task.stale_results")
                    continue
                del inflight[msg.attempt]
                if msg.error is not None:
                    fail(entry.key, msg.error, kind="error")
                    continue
                state = units[entry.key]
                state.failures = 0
                if accept(entry.key, msg):
                    ready.append(entry.key)
                else:
                    state.finished = True
                    done += 1

    # -- reporting -----------------------------------------------------

    def _cluster_report(self, name: str, state: _ClusterState) -> ClusterReport:
        capsule = state.capsule
        if capsule is None:
            return self._unavailable_report(
                name, status=state.status, error=state.error,
                retries=state.retries, batches=state.batches,
            )
        return ClusterReport(
            name=name,
            operations=capsule.operations,
            constant_row=capsule.constant_row,
            norm_ne=capsule.norm_ne,
            verdict=capsule.verdict,
            recalibrations=int(capsule.meta["stats"]["recalibrations"]),
            worker_batches=state.batches,
            status=state.status,
            error=state.error,
            retries=state.retries,
            regime_shifts=int(capsule.meta["stats"]["regime_shifts"]),
            regime_spikes=int(capsule.meta["stats"]["regime_spikes"]),
            stream_updates=int(capsule.meta["stats"].get("stream_updates", 0)),
            stream_fallbacks=int(capsule.meta["stats"].get("stream_fallbacks", 0)),
        )

    @staticmethod
    def _unavailable_report(
        name: str,
        *,
        status: str,
        error: str | None,
        retries: int = 0,
        batches: int = 0,
    ) -> ClusterReport:
        return ClusterReport(
            name=name,
            operations=0,
            constant_row=np.empty(0),
            norm_ne=float("nan"),
            verdict="unavailable",
            recalibrations=0,
            worker_batches=batches,
            status=status,
            error=error,
            retries=retries,
        )

    def _account(self, *, n_workers: int, elapsed: float, ops: int, batches: int) -> None:
        sink = self.instrumentation
        sink.count("fleet.clusters", len(self.clusters))
        sink.count("fleet.operations", ops)
        sink.count("fleet.batches", batches)
        sink.count("fleet.workers", n_workers)
        sink.add_time("fleet.elapsed", elapsed)

    # -- sweep ---------------------------------------------------------

    def plan_sweep(self) -> list[SweepShard]:
        """Partition the fleet's trailing windows into shards.

        Each cluster contributes its trailing ``window``-snapshot TP-matrix
        at the configured ``nbytes``. Clusters are grouped by matrix shape,
        ordered by name within a group, and chunked into shards of at most
        ``batch_size`` — the unit one shared stack block transports and one
        worker solves. The plan is deterministic: it depends only on the
        fleet's specs and config, never on timing.
        """
        cfg = self.config
        windows: dict[tuple[int, int], list[tuple[str, object]]] = {}
        for spec in self.clusters:
            trace = spec.trace
            count = min(int(cfg.window), int(trace.n_snapshots))
            start = int(trace.n_snapshots) - count
            tp = trace.tp_matrix(cfg.nbytes, start=start, count=count)
            windows.setdefault(tp.data.shape, []).append((spec.name, tp))
        shards: list[SweepShard] = []
        width = int(cfg.batch_size)
        for shape in sorted(windows):
            group = sorted(windows[shape], key=lambda item: item[0])
            for lo in range(0, len(group), width):
                chunk = group[lo : lo + width]
                shards.append(
                    SweepShard(
                        index=len(shards),
                        names=tuple(name for name, _ in chunk),
                        tps=tuple(tp for _, tp in chunk),
                    )
                )
        return shards

    def _quarantine_shard(
        self,
        shard: SweepShard,
        results: dict[str, SweepClusterResult],
        error_text: str,
        *,
        kind: str,
    ) -> None:
        status = "quarantined" if kind == "error" else "failed"
        counter = (
            "fleet.cluster.quarantined" if kind == "error" else "fleet.cluster.failed"
        )
        for name in shard.names:
            self.instrumentation.count(counter)
            results[name] = SweepClusterResult(
                name=name,
                constant_row=np.empty(0),
                norm_ne=float("nan"),
                verdict="unavailable",
                rank=0,
                iterations=0,
                converged=False,
                residual=float("nan"),
                status=status,
                error=error_text,
            )

    def run_sweep_serial(self) -> FleetSweepReport:
        """Solve the identical sweep plan in-process, one shard at a time.

        The determinism oracle for :meth:`run_sweep`: per-cluster ``P_D``
        must (and does) match the parallel run bit for bit. Under
        ``on_error="degrade"`` a shard whose solve raises is quarantined
        (all its clusters) while the remaining shards still solve.
        """
        t0 = time.perf_counter()
        cfg = self.config
        shards = self.plan_sweep()
        results: dict[str, SweepClusterResult] = {}
        with instrumented(self.instrumentation):
            for shard in shards:
                try:
                    shard_results = solve_shard(
                        shard.names, list(shard.tps), solver=cfg.solver
                    )
                except Exception:
                    if cfg.on_error != "degrade":
                        raise
                    self._quarantine_shard(
                        shard, results, traceback.format_exc(), kind="error"
                    )
                    continue
                for res in shard_results:
                    results[res.name] = res
        elapsed = time.perf_counter() - t0
        self._account_sweep(n_workers=1, elapsed=elapsed, shards=len(shards))
        return FleetSweepReport(
            clusters=results,
            n_workers=1,
            elapsed_s=elapsed,
            total_shards=len(shards),
            batch_size=int(cfg.batch_size),
            instrumentation=self.instrumentation.state_dict(),
        )

    def run_sweep(self) -> FleetSweepReport:
        """Solve every cluster's trailing window, shard by shard, in parallel.

        Shards ship to workers as :class:`~repro.fleet.shm.SharedStackBlock`
        segments (stacked windows, zero pickled matrix bytes); each worker
        solves its shard's windows one at a time through
        :func:`~repro.fleet.worker.solve_shard` and sends back per-cluster
        results plus its instrumentation ``state_dict`` — one solve span per
        window — which is merged into the fleet sink. The supervision loop
        is :meth:`run`'s: dead workers are respawned and their shards
        requeued (bit-identical on replay), failing shards retry with
        backoff, and ``on_error="degrade"`` quarantines an exhausted shard's
        clusters instead of aborting the sweep. A shard's block is created
        at first dispatch and unlinked as soon as its result lands (or it is
        quarantined), so shared memory stays bounded by the in-flight cap,
        not the fleet size; a requeued shard reuses its block.
        """
        cfg = self.config
        t0 = time.perf_counter()
        shards = self.plan_sweep()
        states = {shard.index: _ShardState(shard=shard) for shard in shards}
        results: dict[str, SweepClusterResult] = {}

        def task(index: int, attempt: int) -> SweepTask:
            state = states[index]
            if state.block is None:
                state.block = SharedStackBlock.create(state.shard.tps)
            return SweepTask(
                shard=index,
                descriptor=state.block.descriptor,
                clusters=state.shard.names,
                solver=cfg.solver,
                attempt=attempt,
            )

        def accept(index: int, result) -> bool:
            if result.instrumentation:
                self.instrumentation.merge(result.instrumentation)
            for res in result.results:
                results[res.name] = res
            _release(states[index])
            return False

        def give_up(index: int, error_text: str, kind: str) -> None:
            self._quarantine_shard(states[index].shard, results, error_text, kind=kind)
            _release(states[index])

        n_workers = min(int(cfg.n_workers), len(shards))
        self._drive(n_workers, states, task=task, accept=accept, give_up=give_up)

        elapsed = time.perf_counter() - t0
        self._account_sweep(n_workers=n_workers, elapsed=elapsed, shards=len(shards))
        return FleetSweepReport(
            clusters=results,
            n_workers=n_workers,
            elapsed_s=elapsed,
            total_shards=len(shards),
            batch_size=int(cfg.batch_size),
            instrumentation=self.instrumentation.state_dict(),
        )

    def _account_sweep(self, *, n_workers: int, elapsed: float, shards: int) -> None:
        sink = self.instrumentation
        sink.count("fleet.clusters", len(self.clusters))
        sink.count("fleet.sweep.shards", shards)
        sink.count("fleet.workers", n_workers)
        sink.add_time("fleet.elapsed", elapsed)
