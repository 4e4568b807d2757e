"""End-to-end benchmark of Algorithm-1 operations; prints metrics as JSON.

Run from the repository root. With no arguments it runs every workload once,
each in a fresh subprocess, and prints every end-to-end metric with its unit
and each correctness check::

    python bench/run.py
    python bench/run.py --workload recal-heavy --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that wraps the program's layer boundaries, prints a per-layer table,
writes ``bench/out/<workload>/spans.jsonl`` and a Chrome trace-event
``trace.json`` (opens in Perfetto) and reports the per-layer metrics. With
one ``--workload`` the last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. A failed correctness
check exits with status 1.

``--workload all`` (the default) runs every workload ``--runs`` times with
seeds ``seed, seed+1, ...`` and can write the collected results to ``--out``
for ``bench/compare.py``.

BLAS pools are pinned to one thread before numpy loads: the reduction
order, and with it every solver's iteration count, is then fixed, and the
two fleet workers do not oversubscribe the cores.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Span layers reported as ``<layer>.calls`` / ``<layer>.s`` (busy seconds).
SPAN_CALLS = (
    "collectives.fnf_tree",
    "collectives.exec_model",
    "runtime.session.weight_matrix",
    "core.engine.calibrate",
    "core.engine.window",
    "core.streaming.stream_fold",
)
SPAN_SECONDS = SPAN_CALLS + (
    "mapping.greedy_mapping",
    "mapping.evaluate",
    "core.detectors.observe",
    "persistence.journal",
    "persistence.checkpoint",
    "persistence.capture",
    "core.maintenance.observe",
)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_names() -> list[str]:
    return [workload["name"] for workload in benchmark_spec()["workloads"]]


def units(section: str) -> dict[str, str]:
    """Metric name to unit for ``end_to_end`` or ``per_layer``."""
    return {metric["name"]: metric["unit"] for metric in benchmark_spec()[section]}


def percentile_ms(latencies: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(latencies, q)) * 1e3


def end_to_end_metrics(outcome) -> dict[str, float]:
    """Timings scaled to the reference host speed (see ``reference.py``)."""
    return {
        "setup_s": statistics.median(
            s * scale for s, scale in zip(outcome.setup_s, outcome.setup_scale)
        ),
        "ops_per_s": outcome.work / outcome.elapsed / outcome.scale,
        "op_ms_p50": percentile_ms(outcome.latencies, 50) * outcome.scale,
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def per_layer_metrics(outcome, tracer, span_cost: float) -> dict[str, float]:
    """Raw per-layer values; ``bench.host_scale`` converts them to scaled ones."""
    from tracing import OP_SPAN

    layers = tracer.layers()
    empty = {"calls": 0, "busy": 0.0, "self": 0.0}
    values: dict[str, float] = {name: 0.0 for name in units("per_layer")}
    for layer in SPAN_CALLS:
        values[f"{layer}.calls"] = layers.get(layer, empty)["calls"]
    for layer in SPAN_SECONDS:
        values[f"{layer}.s"] = layers.get(layer, empty)["busy"]
    values["persistence.journal.appends"] = layers.get("persistence.journal", empty)["calls"]
    values["persistence.checkpoint.writes"] = layers.get("persistence.checkpoint", empty)["calls"]
    values["persistence.checkpoint.bytes_max"] = max(
        tracer.sizes.get("persistence.checkpoint", [0])
    )
    ops = layers.get(OP_SPAN, empty)
    values["bench.ops"] = ops["calls"]
    if ops["calls"]:
        values["runtime.session.self_ms_per_op"] = ops["self"] / ops["calls"] * 1e3
        values["bench.layer_coverage"] = 1.0 - ops["self"] / ops["busy"]
    values["bench.trace_overhead"] = span_cost * len(tracer.spans) / outcome.elapsed
    values["bench.host_scale"] = outcome.scale
    values["runtime.session.op_ms_p90"] = percentile_ms(outcome.latencies, 90)
    values["runtime.session.op_ms_p99"] = percentile_ms(outcome.latencies, 99)
    values.update(outcome.layers)
    return values


def report(values: dict[str, float], wanted: dict[str, str]) -> dict:
    missing = set(wanted) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    return {name: {"value": float(values[name]), "unit": wanted[name]} for name in wanted}


def stop_resource_tracker() -> None:
    """Stop and reap the shared-memory tracker process the fleet starts.

    It would otherwise outlive the run by a moment; the standard library
    offers no public call for this.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run *workload* once; return ``(outcome, metrics, tracer or None)``."""
    import tracing
    from workloads import WORKLOADS

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        outcome = WORKLOADS[workload](seed, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
        stop_resource_tracker()
    if tracer is None:
        metrics = report(end_to_end_metrics(outcome), units("end_to_end"))
    else:
        metrics = report(per_layer_metrics(outcome, tracer, tracing.span_cost()),
                         units("per_layer"))
    return outcome, metrics, tracer


def describe(outcome) -> dict[str, str]:
    """What each end-to-end value was computed from, for the printed table."""
    n = len(outcome.latencies)
    raw_setup = statistics.median(outcome.setup_s)
    return {
        "setup_s": f"median of {len(outcome.setup_s)} set-ups; raw {raw_setup:.4g} s",
        "ops_per_s": f"{outcome.work} operations in {outcome.elapsed:.2f} s; "
                     f"raw {outcome.work / outcome.elapsed:.4g} 1/s",
        "op_ms_p50": f"n={n}; raw {percentile_ms(outcome.latencies, 50):.4g} ms",
        "peak_rss_mb": "measured loop, process and its children",
    }


def run_one(args) -> int:
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"bench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    outcome, metrics, tracer = measure(args.workload, args.seed, args.seconds, args.trace)
    print(f"workload {args.workload} seed {args.seed}: {outcome.attempted} operations "
          f"attempted, {outcome.failed} failed; host speed scale {outcome.scale:.3f}")
    if tracer is None:
        notes = describe(outcome)
        for name, metric in metrics.items():
            print(f"  {name:<12} {metric['value']:>12.4f} {metric['unit']:<4} ({notes[name]})")
        n = len(outcome.latencies)
        for q in (90, 99):
            print(f"  op_ms_p{q}    {percentile_ms(outcome.latencies, q):>12.4f} ms   "
                  f"(raw; n={n}, {n * (100 - q) // 100} beyond; not bounded)")
    else:
        from tracing import format_table

        print(format_table(tracer.layers()))
        tracer.write(OUT_DIR / args.workload)
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"correctness check: {'passed' if not outcome.problems else 'FAILED'}")
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload ``--runs`` times, one fresh subprocess per run."""
    runs = []
    ok = True
    for workload in workload_names():
        for seed in range(args.seed, args.seed + args.runs):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            runs.append({"workload": workload, "seed": seed, "trace": args.trace, **result})
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    return 0 if ok else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=workload_names() + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured wall time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="runs per workload (all)")
    parser.add_argument("--out", default=None, help="results file (all)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(benchmark_spec()["run_seconds"])
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # Anything the program puts in a temporary file stays inside the checkout.
    OUT_DIR.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(OUT_DIR)
    sys.exit(main())
