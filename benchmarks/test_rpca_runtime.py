"""Sec V-B runtime claims: RPCA solves the 196-instance TP-matrix fast.

Paper: "The execution time for running RPCA once is less than 1 minute in
the experiments with 196 instances" (a 10 × 38416 matrix), and the RPCA
calculation contributes <2% of total overhead. Our numpy solvers are far
faster than that bound; the benchmark records the actual per-solve time.

The backend matrix below runs each solver in two arms: ``exact``, the
plain full-SVD loop, which now lives only as a test oracle
(``tests/oracles.py``) and stays the timing baseline, and ``auto``, the
library's one loop, which on this shape thresholds through the Gram
kernel (``repro.core.kernels``) and steps with the fused elementwise
kernel (``repro.core.elementwise``). APG runs a third arm,
``auto-1thread``: the same loop with a thread budget of one, so that its
two column panels (``repro.core.panels``) share the calling thread; its
answer must equal ``auto``'s bit for bit. The final test writes
``BENCH_rpca.json`` at the repo root — mean solve time, iterations, SVD
share and elementwise share per cell, plus the auto-vs-exact speedup per
solver — so future PRs can track the perf trajectory. Numerical parity
(``auto`` against ``exact`` to solver tolerance, same iteration count; the
unmasked APG loop against its block-by-block oracle in ``tests/oracles.py``
to 1e-12 with the same iteration count; IALM's fused elementwise kernel
against the ufunc chain it replaces, bit for bit) is asserted
unconditionally; the speedup target is only *asserted* when
``REPRO_PERF_STRICT=1`` (CI runs record timings but fail on parity, not on
a noisy shared runner's clock).
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import observability
from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.core import elementwise, panels
from repro.core.decompose import constant_row, decompose, decomposition_from_result
from repro.observability.benchrecord import bench_record, write_bench_json
from tests.oracles import apg_unmasked_reference, rpca_apg_plain, rpca_ialm_plain

MB = 1024 * 1024
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_rpca.json"
SPEEDUP_TARGET = 5.0  # auto vs exact
ROUNDS = 3
SEED = 196

# The arms each solver runs: the plain full-SVD loop and the library's.
SVD_CELLS = ["exact", "auto"]
PLAIN_LOOPS = {"apg": rpca_apg_plain, "ialm": rpca_ialm_plain}
# APG's library loop once more with a thread budget of one: its two column
# panels then run on the calling thread, for the same answer bit for bit.
ONE_THREAD = "auto-1thread"
CELLS = [(solver, svd) for solver in ("apg", "ialm") for svd in SVD_CELLS]
CELLS.insert(2, ("apg", ONE_THREAD))

# Filled by the backend-matrix benchmarks, consumed (and written out) by
# test_backend_speedup_and_emit below. Keyed by (solver, svd).
_MATRIX: dict[tuple[str, str], dict] = {}


@pytest.fixture(scope="module")
def tp_196():
    trace = generate_trace(TraceConfig(n_machines=196, n_snapshots=10), seed=SEED)
    return trace.tp_matrix(8 * MB)


@pytest.mark.parametrize("solver", ["apg", "ialm", "row_constant"])
def test_rpca_solver_runtime_196_instances(benchmark, tp_196, solver):
    dec = benchmark(decompose, tp_196, solver=solver)
    assert dec.constant.row.size == 196 * 196
    # The paper's bound, with two orders of magnitude to spare expected.
    stats = benchmark.stats.stats
    assert stats.mean < 60.0


@pytest.mark.parametrize("solver,svd", CELLS)
def test_rpca_backend_matrix_196_instances(benchmark, tp_196, solver, svd):
    """One (solver, svd) cell: benchmark it and record the diagnostics."""
    sink = observability.Instrumentation(f"{solver}-{svd}")
    plain_seconds = []  # the oracle emits no solve span; time its calls

    def run():
        with observability.instrumented(sink):
            if svd == "auto":
                return decompose(tp_196, solver=solver)
            if svd == ONE_THREAD:
                panels.set_thread_budget(1)
                try:
                    return decompose(tp_196, solver=solver)
                finally:
                    panels.set_thread_budget(None)
            start = time.perf_counter()
            result = PLAIN_LOOPS[solver](tp_196.data)
            plain_seconds.append(time.perf_counter() - start)
            return decomposition_from_result(tp_196, result, solver=solver)

    dec = benchmark.pedantic(run, rounds=ROUNDS, iterations=1, warmup_rounds=0)
    stats = benchmark.stats.stats
    assert stats.mean < 60.0  # the paper's bound holds for every backend

    total_seconds = float(sum(span.seconds for span in sink.spans) + sum(plain_seconds))
    svt_seconds = sink.timers.get("kernel.svt_seconds")
    ew_seconds = sink.timers.get("kernel.ew_seconds")

    def share(seconds):
        # Fraction of solve time spent in that kernel phase.
        if seconds is None or total_seconds <= 0:
            return None
        return float(seconds / total_seconds)

    _MATRIX[(solver, svd)] = {
        "solver": solver,
        "backend": svd,
        "rounds": ROUNDS,
        "mean_seconds": float(stats.mean),
        "iterations": dec.solver_iterations,
        "rank": dec.solver_result.rank,
        "converged": dec.solver_converged,
        # Both arms report svd_share: the library times SVTKernel.svt,
        # the plain loop times its full-SVD shrinkage.
        # ew_share is the step-recurrence time outside SVT and norms.
        "svd_share": share(svt_seconds),
        "ew_share": share(ew_seconds),
        "full_width_svds": sink.counters.get("kernel.svt.full_width", 0),
        "threaded_steps": sink.counters.get("kernel.apg.threaded_steps", 0),
        "constant_row": dec.constant.row,
    }


def test_backend_speedup_and_emit(tp_196, emit, monkeypatch):
    """Parity across backends, the perf record, and the strict speedup gate.

    Runs after the matrix cells above (pytest executes in definition
    order). Parity is unconditional; the speedup target is only an
    assertion under ``REPRO_PERF_STRICT=1`` so CI fails on correctness,
    not on a loaded runner's timings.
    """
    assert len(_MATRIX) == len(CELLS), (
        "backend matrix did not populate (run the whole module)"
    )
    one = _MATRIX[("apg", ONE_THREAD)]
    assert one["threaded_steps"] == 0
    assert np.array_equal(one["constant_row"], _MATRIX[("apg", "auto")]["constant_row"])
    assert one["iterations"] == _MATRIX[("apg", "auto")]["iterations"]

    speedups = {}
    for solver in ("apg", "ialm"):
        exact = _MATRIX[(solver, "exact")]
        auto = _MATRIX[(solver, "auto")]
        # Cold one-loop solves agree with the plain loop to solver tolerance.
        scale = float(np.abs(exact["constant_row"]).max())
        diff = float(np.abs(auto["constant_row"] - exact["constant_row"]).max())
        assert diff <= 1e-6 * scale, (
            f"{solver}: auto backend P_D diverged from exact "
            f"(max abs diff {diff:.3e} vs scale {scale:.3e})"
        )
        assert auto["iterations"] == exact["iterations"]
        assert auto["rank"] == exact["rank"]
        # Steady state never falls back to a full-width SVD on this shape.
        assert auto["full_width_svds"] == 0
        if solver == "apg":
            # The fused unmasked loop against the block-by-block oracle.
            ref = apg_unmasked_reference(tp_196.data, svd_backend="auto")
            want = constant_row(ref.low_rank)
            gap = float(np.linalg.norm(auto["constant_row"] - want))
            assert gap <= 1e-12 * float(np.linalg.norm(want)), (
                f"apg: fused loop P_D drifted {gap:.3e} from the oracle"
            )
            assert ref.iterations == auto["iterations"]
        else:
            # The fused elementwise kernel is bit-identical to the historical
            # ufunc chain it falls back to: re-solve with every step on it.
            with monkeypatch.context() as mp:
                mp.setattr(elementwise, "_fusable", lambda *arrays: False)
                chain = decompose(tp_196, solver=solver)
            assert np.array_equal(chain.constant.row, auto["constant_row"]), (
                f"{solver}: fused elementwise kernel broke bit-parity"
            )
            assert chain.solver_iterations == auto["iterations"]
        speedups[solver] = exact["mean_seconds"] / auto["mean_seconds"]

    record = bench_record(
        "rpca_runtime_196_instances",
        seeds=[SEED],
        backend=None,  # per-cell backends live in "results"
        matrix_shape=[tp_196.data.shape[0], tp_196.data.shape[1]],
        speedup_target=SPEEDUP_TARGET,
        speedup_auto_vs_exact={k: float(v) for k, v in speedups.items()},
        results=[
            {k: v for k, v in cell.items() if k != "constant_row"}
            for cell in _MATRIX.values()
        ],
    )
    write_bench_json(BENCH_JSON, record)

    lines = [f"rpca backend matrix ({tp_196.data.shape}, {ROUNDS} rounds):"]
    for cell in record["results"]:

        def fmt(share):
            return "—" if share is None else f"{share:.0%}"

        lines.append(
            f"  {cell['solver']:<5} {cell['backend']:<6} "
            f"{cell['mean_seconds'] * 1e3:9.1f} ms  "
            f"{cell['iterations']:4d} iters  "
            f"svd {fmt(cell['svd_share'])}  ew {fmt(cell['ew_share'])}"
        )
    lines.append(
        "  speedup auto vs exact: "
        + ", ".join(f"{s} {v:.1f}x" for s, v in speedups.items())
        + f"  (target >= {SPEEDUP_TARGET}x, wrote {BENCH_JSON.name})"
    )
    emit("\n".join(lines))

    best = max(speedups.values())
    if os.environ.get("REPRO_PERF_STRICT") == "1":
        assert best >= SPEEDUP_TARGET, (
            f"expected >= {SPEEDUP_TARGET}x auto-vs-exact speedup on at "
            f"least one solver, measured {speedups}"
        )
    elif best < SPEEDUP_TARGET:
        pytest.skip(
            f"speedup {best:.1f}x below target {SPEEDUP_TARGET}x but "
            "REPRO_PERF_STRICT not set (recorded, not enforced)"
        )
