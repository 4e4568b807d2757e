"""Sec V-B runtime claims: RPCA solves the 196-instance TP-matrix fast.

Paper: "The execution time for running RPCA once is less than 1 minute in
the experiments with 196 instances" (a 10 × 38416 matrix), and the RPCA
calculation contributes <2% of total overhead. Our numpy solvers are far
faster than that bound; the benchmark records the actual per-solve time.

The backend matrix below runs IALM, the one relaxed RPCA solver, in three
arms: ``exact``, the plain full-SVD loop, which lives only as a test
oracle (``tests/oracles.py``) and stays the timing baseline; ``auto``, the
library's one loop, which on this shape thresholds through the Gram kernel
(``repro.core.kernels``) and steps with the fused elementwise kernel
(``repro.core.elementwise``), on the process's BLAS pool as it stands; and
``auto-1thread``, the same loop with numpy's OpenBLAS pool resized to one
thread for the solve (skipped where the library exposes no such control).
Each cell records the BLAS thread count it ran on. The final test writes
``BENCH_rpca.json`` at the repo root — mean solve time, iterations, SVD
share and elementwise share per cell, plus the auto-vs-exact speedup — so
future PRs can track the perf trajectory. Numerical parity (``auto``
against ``exact`` to solver tolerance, same iteration count; the fused
elementwise kernel against the ufunc chain it replaces, bit for bit) is
asserted unconditionally; the speedup target and the one-thread arm's
±10% bound on the pooled one are only *asserted* when
``REPRO_PERF_STRICT=1`` (CI runs record timings but fail on parity, not on
a noisy shared runner's clock).
"""

import ctypes
import glob
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro import observability
from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.core import elementwise
from repro.core.decompose import decompose, decomposition_from_result
from repro.observability.benchrecord import bench_record, write_bench_json
from tests.oracles import rpca_ialm_plain

MB = 1024 * 1024
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_rpca.json"
SPEEDUP_TARGET = 5.0  # auto vs exact
ROUNDS = 3
SEED = 196

SOLVER = "ialm"
# The plain full-SVD loop, the library's loop on the BLAS pool as it
# stands, and the library's loop on one BLAS thread.
ONE_THREAD = "auto-1thread"
CELLS = [(SOLVER, "exact"), (SOLVER, "auto"), (SOLVER, ONE_THREAD)]
#: The one-thread arm's time may differ from the pooled one by this much.
POOL_TOLERANCE = 0.10


def _openblas():
    """numpy's bundled OpenBLAS (already loaded), or None for other builds."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            lib.scipy_openblas_get_num_threads64_.argtypes = []
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            return lib
    return None


_BLAS = _openblas()


def blas_threads() -> int | None:
    """Threads in numpy's OpenBLAS pool, or None when it cannot be read."""
    return None if _BLAS is None else int(_BLAS.scipy_openblas_get_num_threads64_())


@contextmanager
def one_blas_thread():
    """Run the body on a one-thread OpenBLAS pool, then restore its size."""
    if _BLAS is None:
        pytest.skip("numpy's BLAS exposes no thread-count control")
    before = blas_threads()
    _BLAS.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        _BLAS.scipy_openblas_set_num_threads64_(before)

# Filled by the backend-matrix benchmarks, consumed (and written out) by
# test_backend_speedup_and_emit below. Keyed by (solver, svd).
_MATRIX: dict[tuple[str, str], dict] = {}


@pytest.fixture(scope="module")
def tp_196():
    trace = generate_trace(TraceConfig(n_machines=196, n_snapshots=10), seed=SEED)
    return trace.tp_matrix(8 * MB)


@pytest.mark.parametrize("solver", ["ialm", "row_constant"])
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
            if svd != "exact":
                return decompose(tp_196, solver=solver)
            start = time.perf_counter()
            result = rpca_ialm_plain(tp_196.data)
            plain_seconds.append(time.perf_counter() - start)
            return decomposition_from_result(tp_196, result, solver=solver)

    if svd == ONE_THREAD:
        with one_blas_thread():
            threads = blas_threads()
            dec = benchmark.pedantic(run, rounds=ROUNDS, iterations=1, warmup_rounds=1)
    else:
        threads = blas_threads()
        dec = benchmark.pedantic(run, rounds=ROUNDS, iterations=1, warmup_rounds=1)
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
        "blas_threads": threads,
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
        "constant_row": dec.constant.row,
    }


def test_backend_speedup_and_emit(tp_196, emit, monkeypatch):
    """Parity across backends, the perf record, and the strict speedup gate.

    Runs after the matrix cells above (pytest executes in definition
    order). Parity is unconditional; the speedup target is only an
    assertion under ``REPRO_PERF_STRICT=1`` so CI fails on correctness,
    not on a loaded runner's timings.
    """
    # The one-thread cell is skipped where numpy's BLAS has no thread-count
    # control; every other cell must have run.
    expected = [c for c in CELLS if _BLAS is not None or c[1] != ONE_THREAD]
    assert sorted(_MATRIX) == sorted(expected), (
        "backend matrix did not populate (run the whole module)"
    )
    exact = _MATRIX[(SOLVER, "exact")]
    auto = _MATRIX[(SOLVER, "auto")]
    one = _MATRIX.get((SOLVER, ONE_THREAD))
    # Cold one-loop solves agree with the plain loop to solver tolerance.
    scale = float(np.abs(exact["constant_row"]).max())
    diff = float(np.abs(auto["constant_row"] - exact["constant_row"]).max())
    assert diff <= 1e-6 * scale, (
        f"auto backend P_D diverged from exact "
        f"(max abs diff {diff:.3e} vs scale {scale:.3e})"
    )
    assert auto["iterations"] == exact["iterations"]
    if one is not None:
        assert one["iterations"] == auto["iterations"]
    assert auto["rank"] == exact["rank"]
    # Steady state never falls back to a full-width SVD on this shape.
    assert auto["full_width_svds"] == 0
    # The fused elementwise kernel is bit-identical to the historical ufunc
    # chain it falls back to: re-solve with every step on it.
    with monkeypatch.context() as mp:
        mp.setattr(elementwise, "_fusable", lambda *arrays: False)
        chain = decompose(tp_196, solver=SOLVER)
    assert np.array_equal(chain.constant.row, auto["constant_row"]), (
        "fused elementwise kernel broke bit-parity"
    )
    assert chain.solver_iterations == auto["iterations"]
    speedups = {SOLVER: exact["mean_seconds"] / auto["mean_seconds"]}
    pool_ratio = None if one is None else auto["mean_seconds"] / one["mean_seconds"]

    record = bench_record(
        "rpca_runtime_196_instances",
        seeds=[SEED],
        backend=None,  # per-cell backends live in "results"
        matrix_shape=[tp_196.data.shape[0], tp_196.data.shape[1]],
        speedup_target=SPEEDUP_TARGET,
        speedup_auto_vs_exact={k: float(v) for k, v in speedups.items()},
        pooled_vs_one_thread=pool_ratio,
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
            f"  {cell['solver']:<5} {cell['backend']:<12} "
            f"blas {cell['blas_threads']}  "
            f"{cell['mean_seconds'] * 1e3:9.1f} ms  "
            f"{cell['iterations']:4d} iters  "
            f"svd {fmt(cell['svd_share'])}  ew {fmt(cell['ew_share'])}"
        )
    lines.append(
        "  speedup auto vs exact: "
        + ", ".join(f"{s} {v:.1f}x" for s, v in speedups.items())
        + f"  (target >= {SPEEDUP_TARGET}x, wrote {BENCH_JSON.name})"
    )
    if pool_ratio is not None:
        lines.append(f"  pooled / one-thread BLAS time: {pool_ratio:.2f}")
    emit("\n".join(lines))

    best = max(speedups.values())
    if os.environ.get("REPRO_PERF_STRICT") == "1":
        assert pool_ratio is None or abs(pool_ratio - 1.0) <= POOL_TOLERANCE, (
            f"the pooled BLAS solve took {pool_ratio:.2f}x the one-thread one"
        )
        assert best >= SPEEDUP_TARGET, (
            f"expected >= {SPEEDUP_TARGET}x auto-vs-exact speedup on at "
            f"least one solver, measured {speedups}"
        )
    elif best < SPEEDUP_TARGET:
        pytest.skip(
            f"speedup {best:.1f}x below target {SPEEDUP_TARGET}x but "
            "REPRO_PERF_STRICT not set (recorded, not enforced)"
        )
