"""The four Algorithm-1 workloads of the end-to-end benchmark.

Every workload is a closed loop with one caller: the next operation starts
only after the previous one returned, as in the paper's Algorithm 1. Inputs
(traces, operation plans, task graphs) are generated from the seed before
any clock starts; the program under test only ever sees those inputs.

Each ``run_*`` function sets the system up several times (``setup_s`` is the
median), drives it for ``seconds`` of wall time, then runs that workload's
correctness check. Between operations and around each set-up it samples the
host-speed reference (``reference.py``). It returns an :class:`Outcome`;
turning outcomes into the printed metrics is ``run.py``'s job.
"""

from __future__ import annotations

import inspect
import itertools
import os
import resource
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import repro
from reference import REFERENCE_S, Reference
from repro.cloudsim.dynamics import DynamicsConfig
from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.core.maintenance import MaintenanceDecision
from repro.core.streaming import StreamingConfig
from repro.fleet import ClusterSpec, FleetConfig, FleetScheduler
from repro.mapping.taskgraph import random_task_graph
from repro.observability import Instrumentation
from repro.persistence import PersistenceConfig, journal_path
from repro.runtime.session import TraceSession

OUT_DIR = Path(__file__).resolve().parent / "out"

#: The fastest configuration the repository has. A setting is passed only
#: while the target still accepts it, so retiring a knob or flipping its
#: default needs no benchmark edit.
FASTEST = (("solver", "apg"), ("svd_backend", "auto"), ("elementwise_backend", "fused"))

#: Setups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: ``recal-heavy`` re-calibration threshold: low enough that nearly every
#: operation re-solves its window.
RECAL_THRESHOLD = 0.01

#: ``recal-heavy`` check: the warm-started P_D in service against a cold
#: solve of the same window, as ``||row - cold||_2 / ||cold||_2``. APG stops
#: on its stationarity residual, not on distance to the optimum, so a
#: warm-start chain settles at a slightly different point than a cold solve:
#: over 20 benchmark runs the gap ranged 0.2%-0.6%, and over 60-operation
#: chains at threshold 0.1 it reached 1.3% without growing with chain length.
RECAL_RTOL = 0.05

#: Untimed streaming operations the ``stream`` check runs before comparing.
STREAM_CHECK_FOLDS = 5

#: Instances of the paper's EC2 cluster, and its smaller size.
PAPER_N = 196
FLEET_N = 64

#: Snapshots of the ``recal-heavy`` trace, and of the paper's week at one
#: calibration per 30 minutes.
RECAL_SNAPSHOTS = 120
WEEK_SNAPSHOTS = 336

#: Fleet shape: clusters, snapshots per cluster, operations per cluster in
#: one ``run()``, and how many clusters the parity checks sample.
FLEET_CLUSTERS = 16
FLEET_SNAPSHOTS = 60
FLEET_OPERATIONS = 8
FLEET_SAMPLED = 2


def fastest_config(target: Callable[..., Any]) -> dict[str, str]:
    """The :data:`FASTEST` settings that *target*'s signature still accepts."""
    accepted = inspect.signature(target).parameters
    return {key: value for key, value in FASTEST if key in accepted}


@dataclass
class Outcome:
    """What one workload run measured.

    ``setup_s`` holds the raw seconds of each set-up and ``setup_scale`` the
    host-speed factor measured around it. ``latencies`` holds one raw
    wall-clock duration per operation the caller waited for, ``elapsed`` the
    measured loop's wall time without the reference samples, and ``scale``
    the host-speed factor over the loop (:meth:`reference.Reference.scale`).
    ``attempted`` and ``failed`` count operations (cluster-operations in the
    fleet). ``peak_rss_mb`` covers the measured loop only. ``problems`` lists
    failed correctness checks; ``layers`` holds per-layer values read from the
    program's own counters.
    """

    setup_s: list[float]
    setup_scale: list[float]
    latencies: list[float]
    elapsed: float
    scale: float
    attempted: int
    failed: int
    peak_rss_mb: float
    problems: list[str]
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def work(self) -> int:
        """Operations that completed."""
        return self.attempted - self.failed


# -- resident memory ---------------------------------------------------------


def reset_peak_rss() -> None:
    """Start a new peak-RSS window for this process (Linux ``clear_refs``).

    Where the kernel refuses, :func:`peak_rss_mb` reads the lifetime peak.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak RSS since :func:`reset_peak_rss`, or of any waited-for child."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    return max(own, children) / 1024.0


def _timed_setups(
    open_system: Callable[[int], Any], close: Callable[[Any], None]
) -> tuple[Any, list[float], list[float]]:
    """Set the system up :data:`SETUP_REPEATS` times; keep the last one.

    Returns ``(system, seconds, scales)``. Each set-up's host-speed factor
    comes from reference samples taken just before and just after it.
    """
    reference = Reference()
    times, scales = [], []
    system = None
    for i in range(SETUP_REPEATS):
        if system is not None:
            close(system)
            system = None
        before = reference.sample()
        t0 = time.perf_counter()
        system = open_system(i)
        times.append(time.perf_counter() - t0)
        scales.append(2 * REFERENCE_S / (before + reference.sample()))
    return system, times, scales


# -- inputs -------------------------------------------------------------------


def _seeds(seed: int, n: int) -> list[int]:
    """*n* independent child seeds of the workload seed."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


def make_trace(n_machines: int, n_snapshots: int, seed: int, dynamics=None):
    config = TraceConfig(
        n_machines=n_machines,
        n_snapshots=n_snapshots,
        dynamics=dynamics if dynamics is not None else DynamicsConfig(),
    )
    return generate_trace(config, seed=seed)


# -- shared session machinery --------------------------------------------------


def _op(tracer, op_id: int):
    return tracer.op(op_id) if tracer is not None else nullcontext()


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _drive(
    session, plan, seconds: float, tracer, reference: Reference, whole_epochs: bool
) -> tuple[list[float], int, int, float]:
    """Run *plan* (cycled) against *session* for *seconds* of wall time.

    Returns ``(latencies, attempted, failed, elapsed)``; *elapsed* leaves out
    the reference samples taken between operations. An operation that raises
    counts as failed and the loop goes on: the caller of Algorithm 1 would
    retry with the next operation. With *whole_epochs* the loop runs past
    the deadline up to the first operation of the next pass over the trace.
    """
    latencies: list[float] = []
    failed = 0
    probing = 0.0
    epoch = session.stats.epochs
    start = time.perf_counter()
    deadline = start + seconds
    for i in itertools.count():
        probing += reference.tick()
        first_of_epoch = session.stats.epochs != epoch
        epoch = session.stats.epochs
        step = plan[i % len(plan)]
        t0 = time.perf_counter()
        with _op(tracer, i):
            try:
                step(session)
            except Exception as exc:  # counted, reported, never fatal
                failed += 1
                if failed == 1:
                    print(f"operation {i} failed: {exc!r}")
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        if t1 >= deadline and (first_of_epoch or not whole_epochs):
            return latencies, i + 1, failed, t1 - start - probing


def _instr_state(session) -> dict[str, Any]:
    instr = session.instrumentation
    return {
        "counters": dict(instr.counters),
        "timers": dict(instr.timers),
        "spans": len(instr.spans),
        "recalibrations": session.stats.recalibrations,
        "operations": session.stats.operations,
        "shifts": session.stats.regime_shifts,
        "spikes": session.stats.regime_spikes,
    }


def _session_layers(session, before: dict[str, Any]) -> dict[str, float]:
    """Per-layer values from the session's own counters over the timed loop."""
    after = _instr_state(session)

    def count(name: str) -> int:
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    def timer(name: str) -> float:
        return after["timers"].get(name, 0.0) - before["timers"].get(name, 0.0)

    spans = session.instrumentation.spans[before["spans"]:]
    ops = after["operations"] - before["operations"]
    layers = _counter_layers(count, timer, spans)
    layers.update(
        {
            "core.detectors.shifts": after["shifts"] - before["shifts"],
            "core.detectors.spikes": after["spikes"] - before["spikes"],
            "core.maintenance.recal_ratio": _ratio(
                after["recalibrations"] - before["recalibrations"], ops
            ),
            "runtime.session.total_s_per_op": session.stats.average_total_seconds,
        }
    )
    if session.persistence is not None:
        directory = os.fspath(session.persistence.directory)
        layers["persistence.journal.bytes"] = os.path.getsize(journal_path(directory))
    return layers


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _counter_layers(count, timer, spans) -> dict[str, float]:
    """Engine, solver, kernel and streaming layers from Instrumentation data."""
    hits, misses = count("engine.window.hit"), count("engine.window.miss")
    warm, cold = count("engine.solve.warm"), count("engine.solve.cold")
    updates = count("kernel.stream.updates")
    solves = len(spans)
    return {
        "core.engine.row_hit_ratio": _ratio(hits, hits + misses),
        "core.engine.warm_ratio": _ratio(warm, warm + cold),
        "core.solvers.solves": solves,
        "core.solvers.s": sum(s.seconds for s in spans),
        "core.solvers.iterations_per_solve": _ratio(sum(s.iterations for s in spans), solves),
        "core.kernels.svt_s": timer("kernel.svt_seconds"),
        "core.kernels.full_width_svds": count("kernel.svt.full_width"),
        "core.elementwise.s": timer("kernel.ew_seconds"),
        "core.streaming.fold_ratio": _ratio(
            updates, updates + count("kernel.stream.fallbacks")
        ),
    }


def _run_session_workload(
    open_session, plan, seconds: float, tracer, check, whole_epochs: bool = False
) -> Outcome:
    session, setups, setup_scale = _timed_setups(open_session, lambda s: s.close())
    if tracer is not None:
        tracer.watch_session(session)
        tracer.start()
    before = _instr_state(session)
    reference = Reference()
    reset_peak_rss()
    latencies, attempted, failed, elapsed = _drive(
        session, plan, seconds, tracer, reference, whole_epochs
    )
    peak = peak_rss_mb()
    layers = {}
    if tracer is not None:
        tracer.pause()
        layers = _session_layers(session, before)
    problems = check(session)
    session.close()
    return Outcome(
        setup_s=setups,
        setup_scale=setup_scale,
        latencies=latencies,
        elapsed=elapsed,
        scale=reference.scale(),
        attempted=attempted,
        failed=failed,
        peak_rss_mb=peak,
        problems=problems,
        layers=layers,
    )


# -- correctness checks -------------------------------------------------------


def cold_row(trace, end: int, window: int, nbytes: float) -> np.ndarray:
    """P_D of a cold :func:`repro.decompose` of the window ending at *end*."""
    tp = trace.tp_matrix(nbytes, start=end - window, count=window)
    return repro.decompose(tp, **fastest_config(repro.decompose)).constant.row


def last_window_end(session) -> int:
    """End snapshot of the window behind the P_D now in service."""
    for record in reversed(session.stats.history):
        if record.decision is MaintenanceDecision.RECALIBRATE:
            return record.snapshot + 1
    return session.time_step


def check_close(row: np.ndarray, reference: np.ndarray, rtol: float, what: str) -> list[str]:
    """``||row - reference||_2 <= rtol * ||reference||_2``, else one problem."""
    gap = float(np.linalg.norm(row - reference) / np.linalg.norm(reference))
    print(f"check {what}: relative gap {gap:.3e} (tolerance {rtol:.1e})")
    if not gap <= rtol:
        return [f"{what}: relative gap {gap:.3e} exceeds {rtol:.1e}"]
    return []


def check_stream_drift(row: np.ndarray, reference: np.ndarray, tolerance: float) -> list[str]:
    """Streaming P_D against a cold solve, as a relative L1 drift."""
    drift = float(np.abs(row - reference).sum() / np.abs(reference).sum())
    print(f"check stream: drift {drift:.3e} against a cold solve (tolerance {tolerance})")
    if not drift <= tolerance:
        return [f"stream: drift {drift:.3e} against a cold solve exceeds {tolerance}"]
    return []


def check_resume(directory: str, trace, operations: int, row: np.ndarray) -> list[str]:
    """Resuming *directory* must reach *operations* with a bit-equal P_D."""
    try:
        resumed = TraceSession.resume(directory, trace=trace)
    except Exception as exc:  # a failed resume is a failed check
        return [f"steady-durable: resume failed: {exc!r}"]
    try:
        problems = []
        if resumed.stats.operations != operations:
            problems.append(
                f"steady-durable: resumed at {resumed.stats.operations} operations, "
                f"expected {operations}"
            )
        if not np.array_equal(resumed.decomposition.constant.row, row):
            problems.append("steady-durable: resumed P_D differs from the live one")
        return problems
    finally:
        resumed.close()


def check_bitwise(name: str, got: np.ndarray, want: np.ndarray, what: str) -> list[str]:
    if not np.array_equal(got, want):
        return [f"fleet: {what} differs for cluster {name}"]
    return []


# -- workloads ----------------------------------------------------------------


def run_recal_heavy(seed: int, seconds: float, tracer=None) -> Outcome:
    """One paper-scale cluster at threshold 0.01: nearly every op re-solves."""
    trace_seed, plan_seed = _seeds(seed, 2)
    trace = make_trace(PAPER_N, RECAL_SNAPSHOTS, trace_seed)
    offset = int(np.random.default_rng(plan_seed).integers(PAPER_N))
    plan = [
        (lambda s, r=(offset + i) % PAPER_N: s.broadcast(root=r)) for i in range(PAPER_N)
    ]

    # At 0.1, the low end of the Fig 6 sweep, 5-19% of operations skip the
    # re-solve, depending on the seed. Throughput would then count those
    # ~2 ms operations instead of measuring the solve path.
    def open_session(_: int) -> TraceSession:
        return TraceSession(trace, threshold=RECAL_THRESHOLD, **fastest_config(TraceSession))

    def check(session) -> list[str]:
        end = last_window_end(session)
        reference = cold_row(trace, end, session.time_step, session.nbytes)
        return check_close(
            session.decomposition.constant.row, reference, RECAL_RTOL, "recal-heavy"
        )

    return _run_session_workload(open_session, plan, seconds, tracer, check)


def _steady_plan(seed: int, length: int = 400) -> list[Callable]:
    """Broadcast/scatter/reduce/gather with random roots; every 5th op maps
    a 16-task graph."""
    rng = np.random.default_rng(seed)
    kinds = ("broadcast", "scatter", "reduce", "gather")
    plan: list[Callable] = []
    for i in range(length):
        if i % 5 == 4:
            graph = random_task_graph(16, seed=int(rng.integers(2**31)))
            plan.append(lambda s, g=graph: s.map_tasks(g))
        else:
            kind, root = kinds[i % 4], int(rng.integers(PAPER_N))
            plan.append(lambda s, k=kind, r=root: s.run_collective(k, root=r))
    return plan


def run_steady_durable(seed: int, seconds: float, tracer=None) -> Outcome:
    """A calm week-long trace with persistence on: the serving path."""
    trace_seed, plan_seed = _seeds(seed, 2)
    # No spikes or hot spots: at threshold 5.0 one spiked link on a tree
    # forces a ~1 s re-solve, and how many land in a run depends on the seed
    # (0 to 6 per 2000 operations at 0.002/0.005), which would make this
    # workload's throughput a count of re-solves instead of serving cost.
    calm = DynamicsConfig(
        volatility_sigma=0.02, spike_probability=0.0, hotspot_probability=0.0
    )
    trace = make_trace(PAPER_N, WEEK_SNAPSHOTS, trace_seed, calm)
    plan = _steady_plan(plan_seed)
    root = OUT_DIR / f"tmp-steady-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)

    def open_session(i: int) -> TraceSession:
        persistence = PersistenceConfig(
            directory=str(root / f"session-{i}"), checkpoint_every=50, fsync=False
        )
        return TraceSession(
            trace, threshold=5.0, persistence=persistence, **fastest_config(TraceSession)
        )

    def check(session) -> list[str]:
        directory = os.fspath(session.persistence.directory)
        session.close()
        return check_resume(
            directory, trace, session.stats.operations, session.decomposition.constant.row
        )

    try:
        return _run_session_workload(open_session, plan, seconds, tracer, check)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run_stream(seed: int, seconds: float, tracer=None) -> Outcome:
    """Streaming mode with the drift detector: folds instead of solves."""
    trace_seed, plan_seed = _seeds(seed, 2)
    # No hot spots: a noisy neighbour degrades every link of a machine, which
    # the drift detector reads as a regime shift and answers with a ~1 s
    # cold re-solve; 0 to 3 of those per run, depending on the seed, would
    # swamp the fold cost this workload exists to measure. Link spikes stay.
    trace = make_trace(
        PAPER_N, WEEK_SNAPSHOTS, trace_seed, DynamicsConfig(hotspot_probability=0.0)
    )
    roots = np.random.default_rng(plan_seed).integers(PAPER_N, size=PAPER_N)
    plan = [(lambda s, r=int(r): s.broadcast(root=r)) for r in roots]

    def open_session(_: int) -> TraceSession:
        return TraceSession(
            trace, threshold=1.0, mode="streaming", regime="drift",
            **fastest_config(TraceSession),
        )

    def check(session) -> list[str]:
        # The run ended on the re-solve that starts a pass; fold a few more
        # snapshots so that the P_D checked is a streamed one. Every
        # streaming operation folds the window ending just past its own
        # snapshot.
        for root in range(STREAM_CHECK_FOLDS):
            session.broadcast(root=root)
        end = session.stats.history[-1].snapshot + 1
        reference = cold_row(trace, end, session.time_step, session.nbytes)
        return check_stream_drift(
            session.decomposition.constant.row, reference, StreamingConfig().tolerance
        )

    # Each pass over the trace starts with a ~1 s re-solve (the window
    # wrapped, so it cannot be folded). Runs end just after one, so every
    # run holds one re-solve per pass whatever its length.
    return _run_session_workload(open_session, plan, seconds, tracer, check, whole_epochs=True)


def _fleet_clusters(seed: int) -> list[ClusterSpec]:
    # No spikes or hot spots: with them, 33-45 of a round's 128 operations
    # re-calibrated, depending on the seed, and round time followed that
    # count. Without them no operation re-calibrates, and the round is the
    # fleet's orchestration plus the batched sweep.
    dynamics = DynamicsConfig(spike_probability=0.0, hotspot_probability=0.0)
    return [
        ClusterSpec(name=f"c{i:02d}", trace=make_trace(FLEET_N, FLEET_SNAPSHOTS, s, dynamics))
        for i, s in enumerate(_seeds(seed, FLEET_CLUSTERS))
    ]


def _fleet_config(**overrides: Any) -> FleetConfig:
    settings = dict(fastest_config(FleetConfig), n_workers=2, batch_size=8,
                    operations=FLEET_OPERATIONS)
    return FleetConfig(**dict(settings, **overrides))


def check_fleet(clusters, config, run_report, sweep_report, names) -> list[str]:
    """Parallel run against serial, and sweep against per-cluster solves."""
    problems = []
    sampled = [c for c in clusters if c.name in names]
    serial = FleetScheduler(sampled, config).run_serial()
    for spec in sampled:
        got, want = run_report.clusters[spec.name], serial.clusters[spec.name]
        problems += check_bitwise(spec.name, got.constant_row, want.constant_row, "run() P_D")
        if got.recalibrations != want.recalibrations:
            problems.append(f"fleet: recalibrations differ for cluster {spec.name}")
        trace = spec.trace
        count = min(config.window, trace.n_snapshots)
        tp = trace.tp_matrix(config.nbytes, start=trace.n_snapshots - count, count=count)
        kwargs = dict(fastest_config(repro.decompose), svd_backend="gram")
        reference = repro.decompose(tp, **kwargs).constant.row
        problems += check_bitwise(
            spec.name, sweep_report.clusters[spec.name].constant_row, reference, "sweep P_D"
        )
    return problems


def run_fleet(seed: int, seconds: float, tracer=None) -> Outcome:
    """Many small clusters on the process-pool fleet: orchestration shows.

    One operation is a fleet round: ``run()`` advances every cluster by
    :data:`FLEET_OPERATIONS` operations, then ``run_sweep()`` re-solves every
    cluster's trailing window in batched shards.
    """
    clusters = _fleet_clusters(seed)
    config = _fleet_config()
    sampled = sorted(
        np.random.default_rng(seed).choice(
            [c.name for c in clusters], FLEET_SAMPLED, replace=False
        )
    )

    boot = _fleet_config(operations=1)
    _, setups, setup_scale = _timed_setups(
        lambda _: FleetScheduler(clusters, boot).run(), lambda _: None
    )

    latencies, run_s, sweep_s = [], [], []
    attempted = failed = 0
    reports = []
    reference = Reference()
    probing = 0.0
    if tracer is not None:
        tracer.start()
    reset_peak_rss()
    start = time.perf_counter()
    deadline = start + seconds
    for i in itertools.count():
        probing += reference.tick()
        t0 = time.perf_counter()
        with _op(tracer, i):
            with _span(tracer, "fleet.run"):
                run_report = FleetScheduler(clusters, config).run()
            t1 = time.perf_counter()
            with _span(tracer, "fleet.sweep"):
                sweep_report = FleetScheduler(clusters, config).run_sweep()
        t2 = time.perf_counter()
        latencies.append(t2 - t0)
        run_s.append(t1 - t0)
        sweep_s.append(t2 - t1)
        if tracer is not None:
            reports.append((run_report, sweep_report))
        attempted += FLEET_CLUSTERS * FLEET_OPERATIONS
        failed += sum(
            FLEET_OPERATIONS - r.operations for r in run_report.clusters.values() if not r.ok
        )
        if t2 >= deadline:
            break
    elapsed = t2 - start - probing
    peak = peak_rss_mb()

    layers = {}
    if tracer is not None:
        tracer.pause()
        serial_s = FleetScheduler(clusters, config).run_serial().elapsed_s
        layers = fleet_layers(reports, run_s, sweep_s, config.n_workers, serial_s)
    problems = check_fleet(clusters, config, run_report, sweep_report, sampled)
    return Outcome(
        setup_s=setups,
        setup_scale=setup_scale,
        latencies=latencies,
        elapsed=elapsed,
        scale=reference.scale(),
        attempted=attempted,
        failed=failed,
        peak_rss_mb=peak,
        problems=problems,
        layers=layers,
    )


def fleet_layers(reports, run_s, sweep_s, n_workers, serial_s) -> dict[str, float]:
    """Fleet, engine and batch layers from the reports' merged counters."""
    runs, sweeps = Instrumentation("runs"), Instrumentation("sweeps")
    for run_report, sweep_report in reports:
        runs.merge(run_report.instrumentation)
        sweeps.merge(sweep_report.instrumentation)
    c, s = runs.counters, sweeps.counters
    active = s.get("kernel.batch.active_iterations", 0)
    dropped = s.get("kernel.batch.dropout_iterations", 0)
    layers = _counter_layers(
        lambda n: c.get(n, 0), lambda n: runs.timers.get(n, 0.0), runs.spans
    )
    layers.update(
        {
            "fleet.run.s": sum(run_s),
            "fleet.sweep.s": sum(sweep_s),
            "fleet.sweep.solves_per_s": FLEET_CLUSTERS * len(sweep_s) / sum(sweep_s),
            "fleet.worker_solve_share": _ratio(
                runs.timers.get("engine.solve_seconds", 0.0), sum(run_s) * n_workers
            ),
            "fleet.task.retries": c.get("fleet.task.retries", 0)
            + s.get("fleet.task.retries", 0),
            "fleet.worker.restarts": c.get("fleet.worker.restarts", 0)
            + s.get("fleet.worker.restarts", 0),
            "fleet.serial_speedup": serial_s / float(np.median(run_s)),
            "core.batch.matrices": s.get("kernel.batch.matrices", 0),
            "core.batch.iterations": _ratio(
                s.get("kernel.batch.iterations", 0), s.get("kernel.batch.solves", 0)
            ),
            "core.batch.occupancy": _ratio(active, active + dropped),
            "core.batch.fallbacks": s.get("kernel.batch.fallback", 0),
        }
    )
    return layers


WORKLOADS: dict[str, Callable[..., Outcome]] = {
    "recal-heavy": run_recal_heavy,
    "steady-durable": run_steady_durable,
    "stream": run_stream,
    "fleet": run_fleet,
}
