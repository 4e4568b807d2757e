"""Command-line interface.

Nine subcommands cover the operational loop around the library:

* ``repro generate`` — synthesize an EC2-like calibration trace to ``.npz``.
* ``repro info`` — stability report of a trace (Norm(N_E), band spread,
  volatility, verdict).
* ``repro decompose`` — run an RPCA solver on a trace's TP-matrix and print
  the decomposition summary.
* ``repro compare`` — replay the Baseline/Heuristics/RPCA comparison on a
  trace and print the normalized table (a command-line Fig 7).
* ``repro replay`` — run the adaptive Algorithm-1 session over a trace,
  optionally with injected measurement faults (``--faults``), degraded-mode
  maintenance, online regime detection (``--regime DETECTOR``), streaming
  incremental decomposition (``--mode streaming``) and crash-safe
  persistence (``--checkpoint-dir``); prints health transitions and
  accounting, or a machine-readable summary with ``--json``.
* ``repro resume`` — recover a crashed (or stopped) ``replay`` session from
  its checkpoint directory and continue it to the operation target.
* ``repro fleet`` — run many clusters' Algorithm-1 sessions concurrently
  across a process pool (traces given as files, or ``--synthesize N``);
  per-cluster results are bit-identical to serial runs (``--serial`` is the
  baseline arm).
* ``repro changepoints`` — locate offline regime changes in a trace.
* ``repro figures`` — regenerate every paper figure at quick or paper scale.

Trace-consuming commands accept ``.npz`` archives or ``.csv`` logs of real
ping-pong measurements (see :func:`repro.load_trace_csv`). ``decompose`` and
``compare`` accept ``--profile``, which activates an observability sink
around the command and prints the instrumentation report (per-solve
iteration/residual/wall-time spans, counters, timers) after the normal
output.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .core.options import SolveOptions
from .core.streaming import ENGINE_MODES
from .errors import ReproError

__all__ = ["main", "build_parser"]

MB = 1024 * 1024


def _add_mode_arguments(cmd: argparse.ArgumentParser) -> None:
    """``--mode`` (``replay``, ``fleet``)."""
    cmd.add_argument("--mode", default=SolveOptions.mode, choices=ENGINE_MODES,
                     help="decomposition mode: batch (full window re-solves) "
                          "or streaming (O(row) per-snapshot folds with "
                          "certified batch fallback)")


def _solve_options(args: argparse.Namespace) -> dict:
    """The :class:`~repro.core.options.SolveOptions` keywords the flags set."""
    return {"solver": args.solver, "mode": args.mode}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Finding Constant from Change (SC'14) — RPCA-based network "
            "performance aware optimization toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a calibration trace")
    gen.add_argument("output", help="output .npz path")
    gen.add_argument("--machines", type=int, default=16)
    gen.add_argument("--snapshots", type=int, default=30)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--volatility", type=float, default=None,
                     help="override volatility sigma")
    gen.add_argument("--migration-rate", type=float, default=None,
                     help="override VM migration rate per snapshot")

    info = sub.add_parser("info", help="stability report of a trace")
    info.add_argument("trace", help="trace .npz path")
    info.add_argument("--message-mb", type=float, default=8.0)

    dec = sub.add_parser("decompose", help="RPCA-decompose a trace")
    dec.add_argument("trace", help="trace .npz path")
    dec.add_argument("--solver", default=SolveOptions.solver)
    dec.add_argument("--time-step", type=int, default=10)
    dec.add_argument("--message-mb", type=float, default=8.0)
    dec.add_argument("--profile", action="store_true",
                     help="print the instrumentation report after the summary")

    cmp_ = sub.add_parser("compare", help="Baseline vs Heuristics vs RPCA replay")
    cmp_.add_argument("trace", help="trace .npz path")
    cmp_.add_argument("--op", default="broadcast",
                      choices=["broadcast", "scatter", "reduce", "gather"])
    cmp_.add_argument("--repetitions", type=int, default=60)
    cmp_.add_argument("--time-step", type=int, default=10)
    cmp_.add_argument("--solver", default=SolveOptions.solver)
    cmp_.add_argument("--message-mb", type=float, default=8.0)
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.add_argument("--profile", action="store_true",
                      help="print the instrumentation report after the table")

    rep = sub.add_parser(
        "replay",
        help="adaptive session replay, optionally with injected faults",
    )
    rep.add_argument("trace", help="trace .npz or .csv path")
    rep.add_argument("--op", default="broadcast",
                     choices=["broadcast", "scatter", "reduce", "gather"])
    rep.add_argument("--operations", type=int, default=60)
    rep.add_argument("--time-step", type=int, default=10)
    rep.add_argument("--threshold", type=float, default=1.0)
    rep.add_argument("--consecutive", type=int, default=1)
    rep.add_argument("--solver", default=SolveOptions.solver)
    _add_mode_arguments(rep)
    rep.add_argument("--message-mb", type=float, default=8.0)
    rep.add_argument("--faults", default=None, metavar="SPEC",
                     help="fault spec: a profile (mild, harsh) or tokens like "
                          "probe_loss=0.1,straggler=0.05,vm_outage=3:12:2,"
                          "rack_outage=0.01")
    rep.add_argument("--fault-seed", type=int, default=0,
                     help="seed for fault materialization")
    rep.add_argument("--min-snapshot-observed", type=float, default=0.8,
                     help="per-snapshot completeness floor in resilient mode")
    rep.add_argument("--min-window-observed", type=float, default=0.5,
                     help="per-window completeness floor in resilient mode")
    rep.add_argument("--regime", nargs="?", const="__bare__", default=None,
                     metavar="DETECTOR",
                     help="enable online regime-shift detection with the "
                          "named detector (cusum, signature, noise-robust, "
                          "drift; SHIFT forces a cold re-calibration); a "
                          "detector name is required")
    rep.add_argument("--regime-params", default=None, metavar="KEY=VALUE[,...]",
                     help="detector config overrides, e.g. "
                          "decision=6.0,warmup=8 (requires --regime)")
    rep.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                     help="enable crash-safe persistence into DIR "
                          "(write-ahead journal + periodic checkpoints)")
    rep.add_argument("--checkpoint-every", type=int, default=100,
                     help="operations between checkpoints (default 100)")
    rep.add_argument("--crash-after", type=int, default=None, metavar="OP",
                     help="SIGKILL this process at operation OP "
                          "(chaos-harness hook)")
    rep.add_argument("--json", action="store_true",
                     help="print a machine-readable JSON summary instead of text")
    rep.add_argument("--profile", action="store_true",
                     help="print the instrumentation report after the summary")

    res = sub.add_parser(
        "resume",
        help="recover a crashed replay session and continue it",
    )
    res.add_argument("directory", help="checkpoint directory of the dead session")
    res.add_argument("--trace", default=None,
                     help="trace path override (default: the path recorded "
                          "in the checkpoint)")
    res.add_argument("--op", default="broadcast",
                     choices=["broadcast", "scatter", "reduce", "gather"])
    res.add_argument("--operations", type=int, default=60,
                     help="total operation target, counting replayed ones")
    res.add_argument("--faults", default=None, metavar="SPEC",
                     help="measurement-fault override (default: the spec "
                          "recorded in the checkpoint)")
    res.add_argument("--crash-after", type=int, default=None, metavar="OP",
                     help="SIGKILL this process at operation OP "
                          "(chaos-harness hook)")
    res.add_argument("--json", action="store_true",
                     help="print a machine-readable JSON summary instead of text")

    flt = sub.add_parser(
        "fleet",
        help="run many clusters' sessions concurrently across a process pool",
    )
    flt.add_argument("traces", nargs="*",
                     help="trace .npz/.csv paths, one cluster per file")
    flt.add_argument("--synthesize", type=int, default=None, metavar="N",
                     help="synthesize N clusters instead of loading traces")
    flt.add_argument("--machines", type=int, default=8,
                     help="machines per synthesized cluster")
    flt.add_argument("--snapshots", type=int, default=24,
                     help="snapshots per synthesized cluster")
    flt.add_argument("--seed", type=int, default=0,
                     help="base seed for synthesized clusters")
    flt.add_argument("--n-workers", type=int, default=2)
    flt.add_argument("--operations", type=int, default=60,
                     help="operations per cluster")
    flt.add_argument("--op", default="broadcast",
                     choices=["broadcast", "scatter", "reduce", "gather"])
    flt.add_argument("--window", type=int, default=10,
                     help="calibration window length")
    flt.add_argument("--threshold", type=float, default=1.0)
    flt.add_argument("--solver", default=SolveOptions.solver)
    flt.add_argument("--message-mb", type=float, default=8.0)
    _add_mode_arguments(flt)
    flt.add_argument("--batch-size", type=int, default=8,
                     help="operations shipped per scheduler tick "
                          "(ignored by --sweep)")
    flt.add_argument("--sweep", action="store_true",
                     help="solve every cluster's trailing window once "
                          "instead of running full sessions")
    flt.add_argument("--checkpoint-root", default=None, metavar="DIR",
                     help="write per-cluster checkpoints under DIR")
    flt.add_argument("--on-error", default="raise",
                     choices=["raise", "degrade"],
                     help="what to do when a cluster exhausts its retries: "
                          "abort the run (raise) or quarantine it into the "
                          "report and keep serving the rest (degrade); a "
                          "degraded report exits nonzero")
    flt.add_argument("--max-task-retries", type=int, default=2,
                     help="extra attempts per failed task")
    flt.add_argument("--retry-backoff", type=float, default=0.05,
                     metavar="SECONDS",
                     help="base retry delay; doubles per failed attempt")
    flt.add_argument("--max-worker-restarts", type=int, default=3,
                     help="fleet-wide budget of worker-process respawns")
    flt.add_argument("--task-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="per-attempt deadline; a stuck worker is killed "
                          "and the task retried (default: no deadline)")
    flt.add_argument("--regime", default=None, metavar="DETECTOR",
                     help="online regime-shift detector every cluster runs "
                          "(cusum, signature, noise-robust, drift)")
    flt.add_argument("--regime-params", default=None, metavar="KEY=VALUE[,...]",
                     help="detector config overrides, e.g. "
                          "decision=6.0,warmup=8 (requires --regime)")
    flt.add_argument("--serial", action="store_true",
                     help="run the identical plan in-process (baseline arm)")
    flt.add_argument("--json", action="store_true",
                     help="print a machine-readable JSON summary instead of text")
    flt.add_argument("--profile", action="store_true",
                     help="print the aggregated instrumentation report "
                          "(per-cluster counters and solve spans merged)")

    chg = sub.add_parser("changepoints", help="locate offline regime changes")
    chg.add_argument("trace", help="trace .npz path")
    chg.add_argument("--window", type=int, default=5)
    chg.add_argument("--threshold", type=float, default=0.25)

    figs = sub.add_parser("figures", help="regenerate every paper figure")
    figs.add_argument("--scale", choices=["quick", "paper"], default="quick")
    figs.add_argument("--simulation", action="store_true",
                      help="include the (slower) netsim figures 12-13")
    figs.add_argument("--seed", type=int, default=2014)
    figs.add_argument("--output", default=None,
                      help="also write the tables to this markdown file")

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    from .cloudsim.dynamics import DynamicsConfig
    from .cloudsim.io import save_trace
    from .cloudsim.tracegen import TraceConfig, generate_trace

    dyn_kwargs = {}
    if args.volatility is not None:
        dyn_kwargs["volatility_sigma"] = args.volatility
    if args.migration_rate is not None:
        dyn_kwargs["migration_rate"] = args.migration_rate
    cfg = TraceConfig(
        n_machines=args.machines,
        n_snapshots=args.snapshots,
        dynamics=DynamicsConfig(**dyn_kwargs),
    )
    trace = generate_trace(cfg, seed=args.seed)
    save_trace(trace, args.output)
    print(
        f"wrote {args.output}: {trace.n_machines} machines x "
        f"{trace.n_snapshots} snapshots (seed {args.seed})"
    )
    return 0


def _load_any_trace(path: str):
    """Load a trace by extension: .npz archives or .csv measurement logs."""
    from .cloudsim.io import load_trace, load_trace_csv

    if path.lower().endswith(".csv"):
        return load_trace_csv(path)
    return load_trace(path)


def _cmd_info(args: argparse.Namespace) -> int:
    from .analysis.tracestats import trace_stability_report

    trace = _load_any_trace(args.trace)
    rep = trace_stability_report(trace, nbytes=args.message_mb * MB)
    print(f"machines:          {rep.n_machines}")
    print(f"snapshots:         {rep.n_snapshots}")
    print(f"Norm(N_E):         {rep.norm_ne:.4f}")
    print(f"band spread p90/p10: {rep.band_spread:.2f}x")
    print(f"median volatility: {rep.median_volatility:.3f}")
    print(f"spike fraction:    {rep.spike_fraction:.3f}")
    print(f"verdict:           {rep.verdict}")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    from .core.decompose import decompose

    trace = _load_any_trace(args.trace)
    count = min(args.time_step, trace.n_snapshots)
    tp = trace.tp_matrix(args.message_mb * MB, start=0, count=count)
    dec = decompose(tp, solver=args.solver)
    print(f"solver:     {dec.solver} ({dec.solver_iterations} iterations, "
          f"converged={dec.solver_converged})")
    print(f"rank(D):    {dec.report.rank}")
    print(f"Norm(N_E):  {dec.norm_ne:.4f} (l0 variant {dec.report.norm_ne_l0:.4f})")
    print(f"verdict:    {dec.report.verdict}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .experiments.harness import ReplayContext, collective_comparison
    from .experiments.report import format_table
    from .strategies import BaselineStrategy, HeuristicStrategy, RPCAStrategy

    trace = _load_any_trace(args.trace)
    nbytes = args.message_mb * MB
    ctx = ReplayContext(trace=trace, time_step=args.time_step, nbytes=nbytes)
    op_bytes = nbytes / trace.n_machines if args.op in ("scatter", "gather") else nbytes
    arms = [
        BaselineStrategy(),
        HeuristicStrategy("mean"),
        RPCAStrategy(args.solver, time_step=args.time_step),
    ]
    res = collective_comparison(
        ctx, arms, op=args.op, nbytes=op_bytes,
        repetitions=args.repetitions, seed=args.seed,
    )
    rpca = next(a for a in arms if isinstance(a, RPCAStrategy))
    rows = [(name, res.mean(name), res.normalized_means()[name])
            for name in res.times]
    print(format_table(
        ["strategy", "mean elapsed (s)", "normalized"],
        rows,
        title=f"{args.op}, {args.repetitions} reps, Norm(N_E)={rpca.norm_ne:.3f}",
    ))
    print(f"RPCA vs Baseline:   {res.improvement('RPCA', 'Baseline'):+.1%}")
    print(f"RPCA vs Heuristics: {res.improvement('RPCA', 'Heuristics'):+.1%}")
    return 0


def _resolve_regime_args(args: argparse.Namespace) -> tuple[str | None, dict | None]:
    """Turn ``--regime`` / ``--regime-params`` into session kwargs.

    The bare ``--regime`` flag (no value) was a one-release deprecated
    alias for the CUSUM default; as of v1.1 it is a hard error — same
    retirement policy as the facade's legacy keyword spellings.
    """
    from .core.detectors import detector_names, parse_detector_params
    from .errors import ValidationError

    regime = args.regime
    if regime == "__bare__":
        raise ValidationError(
            "--regime requires a detector name as of v1.1; "
            f"choose one of: {', '.join(detector_names())}"
        )
    params = parse_detector_params(args.regime_params) or None
    return regime, params


def _session_summary(session, *, recovered_at: int | None = None) -> dict:
    """Machine-readable session summary (the ``--json`` payload).

    ``constant_row`` carries the full constant component so external
    harnesses (CI chaos job, kill-and-recover tests) can assert bit-level
    ``P_D`` parity across crash/recovery boundaries.
    """
    stats = session.stats
    return {
        "operations": stats.operations,
        "epochs": stats.epochs,
        "communication_seconds": stats.communication_seconds,
        "overhead_seconds": stats.overhead_seconds,
        "recalibrations": stats.recalibrations,
        "failed_recalibrations": stats.failed_recalibrations,
        "deferred_recalibrations": stats.deferred_recalibrations,
        "holdover_operations": stats.holdover_operations,
        "regime_shifts": stats.regime_shifts,
        "regime_spikes": stats.regime_spikes,
        "mode": session.mode,
        "stream_updates": stats.stream_updates,
        "stream_fallbacks": stats.stream_fallbacks,
        "regime_detector": (
            None
            if session.regime_detector is None
            else session.regime_detector.name
        ),
        "health": session.health_state.value,
        "staleness": session.staleness,
        "fault_events": len(session.fault_events),
        "norm_ne": session.norm_ne,
        "verdict": session.verdict,
        "n_machines": session.trace.n_machines,
        "constant_row": [float(v) for v in session.decomposition.constant.row],
        "recovered_at": recovered_at,
    }


def _print_session_summary(
    session, *, show_faults: bool, recovered_at: int | None = None
) -> None:
    stats = session.stats
    if recovered_at is not None:
        print(f"recovered:         at operation {recovered_at}")
    print(f"operations:        {stats.operations} "
          f"({stats.epochs} trace epoch(s))")
    print(f"communication:     {stats.communication_seconds:.3f} s")
    print(f"overhead:          {stats.overhead_seconds:.3f} s")
    print(f"recalibrations:    {stats.recalibrations}")
    if session.mode == "streaming":
        print(f"stream updates:    {stats.stream_updates} "
              f"({stats.stream_fallbacks} fallback(s))")
    if session.regime_detector is not None:
        print(f"regime detector:   {session.regime_detector.name}")
        print(f"regime shifts:     {stats.regime_shifts} "
              f"({stats.regime_spikes} transient spike(s))")
    if show_faults:
        print(f"failed recals:     {stats.failed_recalibrations}")
        print(f"deferred recals:   {stats.deferred_recalibrations}")
        print(f"degraded/holdover operations: {stats.holdover_operations}")
        print(f"fault events:      {len(session.fault_events)}")
        print(f"final health:      {session.health_state.value} "
              f"(staleness {session.staleness} ops)")
        transitions = session.health_transitions
        if transitions:
            print("health transitions:")
            for t in transitions:
                print(f"  op {t.operation:4d}: {t.previous.value} -> "
                      f"{t.state.value}  ({t.reason})")
    print(f"Norm(N_E):         {session.norm_ne:.4f}")
    print(f"verdict:           {session.verdict}")


def _cmd_replay(args: argparse.Namespace) -> int:
    import json

    from .core.maintenance import ResilienceConfig
    from .persistence import PersistenceConfig
    from .runtime import TraceSession

    trace = _load_any_trace(args.trace)
    regime, regime_params = _resolve_regime_args(args)
    resilience = None
    if args.faults is not None:
        resilience = ResilienceConfig(
            min_snapshot_observed=args.min_snapshot_observed,
            min_window_observed=args.min_window_observed,
        )
    persistence = None
    if args.checkpoint_dir is not None:
        persistence = PersistenceConfig(
            directory=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            trace_path=args.trace,
        )
    session = TraceSession(
        trace,
        nbytes=args.message_mb * MB,
        time_step=args.time_step,
        threshold=args.threshold,
        consecutive=args.consecutive,
        **_solve_options(args),
        faults=args.faults,
        fault_seed=args.fault_seed,
        resilience=resilience,
        persistence=persistence,
        regime=regime,
        regime_params=regime_params,
        crash_after=args.crash_after,
    )
    for _ in range(args.operations):
        session.run_collective(args.op, root=0)
    session.close()
    if args.json:
        print(json.dumps(_session_summary(session)))
    else:
        _print_session_summary(session, show_faults=args.faults is not None)
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    import json

    from .runtime import TraceSession

    trace = None if args.trace is None else _load_any_trace(args.trace)
    session = TraceSession.resume(
        args.directory,
        trace=trace,
        faults=args.faults,
        crash_after=args.crash_after,
    )
    recovered_at = session.stats.operations
    while session.stats.operations < args.operations:
        session.run_collective(args.op, root=0)
    session.close()
    if args.json:
        print(json.dumps(_session_summary(session, recovered_at=recovered_at)))
    else:
        _print_session_summary(
            session,
            show_faults=session.fault_schedule is not None,
            recovered_at=recovered_at,
        )
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json
    import os

    from .core.detectors import parse_detector_params
    from .fleet import ClusterSpec, FleetConfig, FleetScheduler
    from .observability import active

    config = FleetConfig(
        n_workers=args.n_workers,
        window=args.window,
        threshold=args.threshold,
        nbytes=args.message_mb * MB,
        **_solve_options(args),
        operations=args.operations,
        op=args.op,
        batch_size=args.batch_size,
        checkpoint_root=args.checkpoint_root,
        on_error=args.on_error,
        max_task_retries=args.max_task_retries,
        retry_backoff_s=args.retry_backoff,
        max_worker_restarts=args.max_worker_restarts,
        task_timeout_s=args.task_timeout,
        regime_detector=args.regime,
        regime_params=(
            parse_detector_params(args.regime_params) or None
        ),
    )

    if args.synthesize is not None:
        if args.traces:
            print("error: give trace files or --synthesize, not both",
                  file=sys.stderr)
            return 2
        if args.synthesize < 1:
            print("error: --synthesize must be >= 1", file=sys.stderr)
            return 2
        from .cloudsim.tracegen import TraceConfig, generate_trace

        cfg_t = TraceConfig(n_machines=args.machines, n_snapshots=args.snapshots)
        clusters = [
            ClusterSpec(
                name=f"cluster-{i:02d}",
                trace=generate_trace(cfg_t, seed=args.seed + i),
            )
            for i in range(args.synthesize)
        ]
    elif args.traces:
        clusters = []
        for i, path in enumerate(args.traces):
            stem = os.path.splitext(os.path.basename(path))[0]
            clusters.append(
                ClusterSpec(name=f"{i:02d}-{stem}", trace=_load_any_trace(path))
            )
    else:
        print("error: give trace files or --synthesize N", file=sys.stderr)
        return 2

    # Under --profile the CLI sink is active: make it the fleet sink so the
    # per-cluster counters and solve spans merged back from the workers show
    # up in the final report.
    sinks = active()
    scheduler = FleetScheduler(
        clusters, config, instrumentation=sinks[0] if sinks else None
    )
    # A degraded report (any cluster not "ok") still prints in full — the
    # healthy clusters' results are complete — but the exit code goes
    # nonzero so scripts and CI notice the partial outcome.
    if args.sweep:
        report = (
            scheduler.run_sweep_serial() if args.serial else scheduler.run_sweep()
        )
        exit_code = 3 if report.degraded else 0
        if args.json:
            print(json.dumps(report.summary()))
            return exit_code
        mode = "serial" if args.serial else f"{report.n_workers} worker(s)"
        print(f"sweep:    {len(report.clusters)} cluster(s), {mode}")
        print(f"elapsed:  {report.elapsed_s:.3f} s "
              f"({report.throughput_solves_s:.1f} solves/s)")
        _print_fleet_health(report)
        for name in sorted(report.clusters):
            res = report.clusters[name]
            suffix = "" if res.ok else f" status={res.status}"
            print(f"  {name}: rank={res.rank} iters={res.iterations} "
                  f"Norm(N_E)={res.norm_ne:.4f} verdict={res.verdict}{suffix}")
        return exit_code
    report = scheduler.run_serial() if args.serial else scheduler.run()
    exit_code = 3 if report.degraded else 0
    if args.json:
        print(json.dumps(report.summary()))
        return exit_code
    mode = "serial" if args.serial else f"{report.n_workers} worker(s)"
    print(f"fleet:      {len(report.clusters)} cluster(s), {mode}")
    print(f"operations: {report.total_operations} "
          f"({report.total_batches} batches)")
    print(f"elapsed:    {report.elapsed_s:.3f} s "
          f"({report.throughput_ops_s:.1f} ops/s)")
    _print_fleet_health(report)
    for name in sorted(report.clusters):
        rep = report.clusters[name]
        suffix = "" if rep.ok else f" status={rep.status}"
        print(f"  {name}: ops={rep.operations} recals={rep.recalibrations} "
              f"Norm(N_E)={rep.norm_ne:.4f} verdict={rep.verdict}{suffix}")
    return exit_code


def _print_fleet_health(report) -> None:
    """One health line, plus a degraded warning when any cluster is sick."""
    health = report.health()
    print(f"health:     restarts={health['worker_restarts']} "
          f"retries={health['task_retries']} "
          f"timeouts={health['task_timeouts']} "
          f"quarantined={health['clusters_quarantined']}")
    if health["regime_shifts"] or health["regime_spikes"]:
        print(f"regime:     shifts={health['regime_shifts']} "
              f"spikes={health['regime_spikes']} "
              f"forced_recals={health['forced_recalibrations']}")
    if report.degraded:
        sick = sorted(
            name for name, status in report.statuses().items() if status != "ok"
        )
        print(f"DEGRADED:   {len(sick)} cluster(s) did not finish healthy: "
              f"{', '.join(sick)}")


def _cmd_changepoints(args: argparse.Namespace) -> int:
    from .analysis.changepoints import detect_regime_changes

    trace = _load_any_trace(args.trace)
    changes = detect_regime_changes(
        trace, window=args.window, threshold=args.threshold
    )
    if not changes:
        print("no regime changes detected")
        return 0
    for c in changes:
        print(f"snapshot {c.snapshot}: relative shift {c.shift:.3f}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .experiments.figures_runner import run_all_figures

    reports = run_all_figures(
        scale=args.scale,
        include_simulation=args.simulation,
        seed=args.seed,
        emit=print,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(f"# Regenerated figures (scale: {args.scale}, seed: {args.seed})\n")
            for r in reports:
                fh.write(f"\n## {r.figure}\n\n```\n{r.text}\n```\n")
        print(f"wrote {args.output}")
    print(f"regenerated {len(reports)} figures at {args.scale!r} scale")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "info": _cmd_info,
    "decompose": _cmd_decompose,
    "compare": _cmd_compare,
    "replay": _cmd_replay,
    "resume": _cmd_resume,
    "fleet": _cmd_fleet,
    "changepoints": _cmd_changepoints,
    "figures": _cmd_figures,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if getattr(args, "profile", False):
        from .observability import Instrumentation, instrumented

        instr = Instrumentation(args.command)
        with instrumented(instr):
            code = _COMMANDS[args.command](args)
        print()
        print(instr.report())
        return code
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
