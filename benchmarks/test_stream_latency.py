"""Streaming fold latency vs batch recalibration at 196 instances.

The v1.1 tentpole claim: with ``mode="streaming"`` the engine folds each
new calibration snapshot into the live L/S decomposition in O(row) —
amortized ≥5x faster than the full batch recalibration it replaces — while
every fallback to the batch path stays a *certified* oracle (bit-identical
to a cold solve of the same window).

Two arms over the same paper-scale trace (196 instances, ``10 × 38416``
windows), both on the solver's one loop with its shape-chosen (``auto``)
SVT kernel — the fastest batch configuration:

* **batch** — cold ``calibrate()`` per slide, the historical Algorithm-1
  re-calibration cost;
* **streaming** — one seeding ``calibrate()`` then ``stream_fold()`` per
  slide, with per-fold wall time amortized over every attempted slide
  (fallback-triggered re-solves charge their batch cost to the streaming
  arm, so the speedup is honest about fallback frequency).

The run writes ``BENCH_stream.json`` at the repo root under the shared
:mod:`repro.observability.benchrecord` schema. Certified-fallback parity
is asserted **unconditionally**; the ≥5x amortized speedup target is only
an assertion under ``REPRO_PERF_STRICT=1`` (recorded and skipped
otherwise), like every other perf gate in this suite.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.core.decompose import decompose
from repro.core.engine import DecompositionEngine
from repro.core.options import SolveOptions
from repro.core.streaming import StreamingConfig
from repro.observability import Instrumentation
from repro.observability.benchrecord import bench_record, write_bench_json

MB = 1024 * 1024
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_stream.json"

N_INSTANCES = 196
WINDOW = 10
N_SNAPSHOTS = 34  # seeds at 10, then 24 single-snapshot slides
SEED = 1960
SPEEDUP_TARGET = 5.0
BATCH_SAMPLE = 4  # cold batch solves timed for the baseline
SVD_BACKEND = "auto"  # the kernel both arms and the cold oracle run


@pytest.fixture(scope="module")
def trace_196():
    return generate_trace(
        TraceConfig(n_machines=N_INSTANCES, n_snapshots=N_SNAPSHOTS), seed=SEED
    )


def _engine(trace, *, mode="batch", **kwargs):
    return DecompositionEngine(
        trace, nbytes=8 * MB, time_step=WINDOW,
        options=SolveOptions(mode=mode),
        **kwargs
    )


def test_stream_fold_latency_and_emit(trace_196, emit):
    ends = range(WINDOW + 1, N_SNAPSHOTS + 1)

    # -- batch baseline: cold re-solve per slide (sampled) --------------
    batch = _engine(trace_196)
    batch_times = []
    for end in list(ends)[:BATCH_SAMPLE]:
        t0 = time.perf_counter()
        batch.calibrate(end)
        batch_times.append(time.perf_counter() - t0)
    batch_mean = float(np.mean(batch_times))

    # -- streaming arm: seed once, then fold every slide ----------------
    sink = Instrumentation("stream-bench")
    stream = _engine(trace_196, mode="streaming", instrumentation=sink)
    stream.calibrate(WINDOW)
    folds = fallbacks = 0
    slide_times = []  # per-slide cost, fallback re-solves included
    for end in ends:
        t0 = time.perf_counter()
        if stream.stream_plan(end) == "fold":
            dec, reason = stream.stream_fold(end)
        else:
            dec, reason = None, "plan"
        if dec is None:
            fallbacks += 1
            recal = stream.calibrate(end)
            # Certified fallback: bit-identical to a cold solve of the
            # same window, streaming history notwithstanding. Asserted
            # unconditionally on every fallback the run produces.
            oracle = decompose(
                trace_196.tp_matrix(8 * MB, start=end - WINDOW, count=WINDOW),
                solver=stream.options.solver,
            )
            assert np.array_equal(recal.constant.row, oracle.constant.row), (
                f"fallback ({reason}) at end={end} diverged from the "
                "cold batch oracle"
            )
        else:
            folds += 1
            assert dec.constant.row.size == N_INSTANCES * N_INSTANCES
        slide_times.append(time.perf_counter() - t0)
    assert folds + fallbacks == len(slide_times)
    assert folds > 0, "streaming arm never folded (seed failed?)"

    # Streaming accuracy: the last in-service P_D tracks a cold re-solve
    # of the same window within the drift ceiling (it is an incremental
    # estimate, not the oracle — the oracle guarantee is the fallback's).
    final = stream.last
    oracle = decompose(
        trace_196.tp_matrix(8 * MB, start=N_SNAPSHOTS - WINDOW, count=WINDOW),
        solver=stream.options.solver,
    )
    scale = float(np.abs(oracle.constant.row).max())
    drift = float(np.abs(final.constant.row - oracle.constant.row).max())
    assert drift <= stream.stream_config.tolerance * scale

    amortized = float(np.mean(slide_times))
    fold_only = sink.timers.get("kernel.stream.update_seconds", 0.0) / max(folds, 1)
    speedup = batch_mean / amortized

    record = bench_record(
        "stream_fold_latency_196_instances",
        seeds=[SEED],
        backend=SVD_BACKEND,
        matrix_shape=[WINDOW, N_INSTANCES * N_INSTANCES],
        slides=len(slide_times),
        folds=folds,
        fallbacks=fallbacks,
        batch_sample=BATCH_SAMPLE,
        batch_mean_seconds=batch_mean,
        amortized_slide_seconds=amortized,
        fold_mean_seconds=fold_only,
        speedup_amortized_vs_batch=speedup,
        speedup_target=SPEEDUP_TARGET,
        stream_counters={
            k: int(v) for k, v in sink.counters.items()
            if k.startswith("kernel.stream.")
        },
        final_drift_rel=drift / scale if scale else None,
        parity="bitwise-on-fallback",
    )
    write_bench_json(BENCH_JSON, record)

    emit(
        "\n".join(
            [
                f"streaming fold latency ({N_INSTANCES} instances, "
                f"{len(slide_times)} slides):",
                f"  batch recal  {batch_mean * 1e3:9.1f} ms/slide  "
                f"({BATCH_SAMPLE} sampled)",
                f"  streaming    {amortized * 1e3:9.1f} ms/slide amortized  "
                f"({fold_only * 1e3:.1f} ms/fold, {folds} folds, "
                f"{fallbacks} fallback(s))",
                f"  speedup {speedup:.1f}x  (target >= {SPEEDUP_TARGET}x, "
                f"wrote {BENCH_JSON.name})",
            ]
        )
    )

    if os.environ.get("REPRO_PERF_STRICT") == "1":
        assert speedup >= SPEEDUP_TARGET, (
            f"expected >= {SPEEDUP_TARGET}x amortized streaming speedup, "
            f"measured {speedup:.2f}x ({fallbacks} fallbacks over "
            f"{len(slide_times)} slides)"
        )
    elif speedup < SPEEDUP_TARGET:
        pytest.skip(
            f"speedup {speedup:.1f}x below {SPEEDUP_TARGET}x target but "
            "REPRO_PERF_STRICT not set (recorded, not enforced)"
        )


def test_certified_fallback_bit_parity():
    """A forced drift fallback re-solves bit-identically to the cold oracle.

    The big run above asserts parity on whatever fallbacks it happens to
    produce; this one *guarantees* the code path runs by setting the drift
    ceiling so low every fold trips it (small scale — correctness, not
    timing).
    """
    trace = generate_trace(TraceConfig(n_machines=24, n_snapshots=20), seed=7)
    eng = DecompositionEngine(
        trace, nbytes=8 * MB, time_step=WINDOW,
        options=SolveOptions(mode="streaming"),
    )
    eng.stream_config = StreamingConfig(tolerance=1e-6)
    eng.calibrate(WINDOW)
    fallbacks = 0
    for end in range(WINDOW + 1, 21):
        dec, reason = (
            eng.stream_fold(end)
            if eng.stream_plan(end) == "fold"
            else (None, "plan")
        )
        if dec is not None:
            continue
        fallbacks += 1
        recal = eng.calibrate(end)
        oracle = decompose(
            trace.tp_matrix(8 * MB, start=end - WINDOW, count=WINDOW),
            solver=eng.options.solver,
        )
        assert np.array_equal(recal.constant.row, oracle.constant.row), (
            f"fallback ({reason}) at end={end} diverged from the cold oracle"
        )
    assert fallbacks > 0, "drift ceiling of 1e-6 never tripped a fallback"
