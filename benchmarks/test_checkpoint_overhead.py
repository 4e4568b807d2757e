"""Crash-safety tax: journaled-checkpoint overhead on the steady-state path.

Persistence must be cheap enough to leave on: the write-ahead journal adds
a tiny append to every operation and a full checkpoint every
``checkpoint_every`` operations. The benchmark measures both against the
plain per-operation cost across TP-window sizes (the window sets the
checkpoint's array payload), and the assertion pins the design target from
the issue: amortized checkpoint cost under 5% of steady-state operation
time. Recovery latency (checkpoint load + journal replay) is reported
alongside, since it bounds the restart blackout after a crash.

The age test runs a calm session past three sealed history blocks at
``checkpoint_every=50`` and writes ``BENCH_persistence.json`` at the repo
root: the median save time of the first and the last tenth of its
checkpoints, the checkpoint file sizes, and the journal append cost per
record kind. The file-size bound (one open block of history plus the
metadata) is asserted always; last tenth ≤ 1.5 × first tenth only under
``REPRO_PERF_STRICT=1``.
"""

import json
import os
import statistics
import time
from pathlib import Path

import pytest

from repro.cloudsim.dynamics import DynamicsConfig
from repro.cloudsim.io import save_trace
from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.mapping.taskgraph import random_task_graph
from repro.observability.benchrecord import bench_record, write_bench_json
from repro.persistence import PersistenceConfig, SnapshotJournal, read_checkpoint
from repro.persistence.journal import pack_float64
from repro.persistence.state import HISTORY_BLOCK_ROWS
from repro.runtime.session import TraceSession

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_persistence.json"

OPS = 40
TIME_STEPS = [5, 10, 20]


@pytest.fixture(scope="module")
def trace_16():
    cfg = TraceConfig(
        n_machines=16,
        n_snapshots=48,
        dynamics=DynamicsConfig(volatility_sigma=0.05),
    )
    return generate_trace(cfg, seed=16)


def _drive(session, n_ops):
    n = session.trace.n_machines
    for _ in range(n_ops):
        session.broadcast(root=session.stats.operations % n)


def _best_of(measure, repeats=5):
    """Fastest of *repeats* timed batches — robust against scheduler noise."""
    return min(measure() for _ in range(repeats))


def _steady_per_op_seconds(trace, time_step):
    # threshold high: no recalibrations, so this is the pure serving path.
    session = TraceSession(trace, time_step=time_step, threshold=10.0)
    _drive(session, 5)  # warm caches before timing

    def batch():
        t0 = time.perf_counter()
        _drive(session, OPS)
        return (time.perf_counter() - t0) / OPS

    return _best_of(batch)


def _checkpoint_seconds(trace, time_step, tmp_path, n_ckpts=10):
    session = TraceSession(
        trace,
        time_step=time_step,
        threshold=10.0,
        persistence=PersistenceConfig(
            directory=tmp_path / f"ts{time_step}", checkpoint_every=10**9
        ),
    )
    _drive(session, 30)  # non-trivial history + journal in the payload
    session.checkpoint()  # warm the write path

    def batch():
        t0 = time.perf_counter()
        for _ in range(n_ckpts):
            session.checkpoint()
        return (time.perf_counter() - t0) / n_ckpts

    elapsed = _best_of(batch)
    session.close()
    return elapsed


@pytest.mark.parametrize("time_step", TIME_STEPS)
def test_checkpoint_write_latency(benchmark, trace_16, tmp_path, time_step):
    session = TraceSession(
        trace_16,
        time_step=time_step,
        threshold=10.0,
        persistence=PersistenceConfig(
            directory=tmp_path / "bench", checkpoint_every=10**9
        ),
    )
    _drive(session, 5)
    benchmark(session.checkpoint)
    session.close()


@pytest.mark.parametrize("time_step", TIME_STEPS)
def test_recovery_latency(benchmark, trace_16, tmp_path, time_step):
    tpath = tmp_path / "trace.npz"
    save_trace(trace_16, tpath)
    session = TraceSession(
        trace_16,
        time_step=time_step,
        threshold=10.0,
        persistence=PersistenceConfig(
            directory=tmp_path / "state",
            checkpoint_every=20,
            trace_path=str(tpath),
        ),
    )
    _drive(session, 24)  # newest checkpoint at op 20 → 4 records to replay
    session.close()

    def _resume():
        resumed = TraceSession.resume(tmp_path / "state", trace=trace_16)
        resumed.close()
        return resumed

    resumed = benchmark(_resume)
    assert resumed.stats.operations == 24


def test_amortized_checkpoint_overhead_under_five_percent(
    trace_16, tmp_path, emit
):
    """The acceptance bound: at the default cadence, checkpointing costs
    less than 5% of the steady-state serving time per operation."""
    cadence = PersistenceConfig(directory=tmp_path / "x").checkpoint_every
    rows = [f"{'T_window':>9} {'per-op':>12} {'ckpt':>12} {'amortized':>10}"]
    worst = 0.0
    for time_step in TIME_STEPS:
        per_op = _steady_per_op_seconds(trace_16, time_step)
        ckpt = _checkpoint_seconds(trace_16, time_step, tmp_path)
        ratio = (ckpt / cadence) / per_op
        worst = max(worst, ratio)
        rows.append(
            f"{time_step:>9} {per_op * 1e3:>10.3f}ms {ckpt * 1e3:>10.3f}ms "
            f"{ratio:>9.1%}"
        )
    emit(
        f"checkpoint overhead at cadence {cadence} "
        "(amortized ckpt cost / steady per-op cost):\n" + "\n".join(rows)
    )
    assert worst < 0.05, (
        f"amortized checkpoint overhead {worst:.1%} exceeds the 5% budget"
    )


# -- checkpoint cost against session age ------------------------------------
AGE_BLOCKS = 3
AGE_CADENCE = 50
# 0.9 * AGE_OPS lands just past the third block edge, so the first and the
# last tenth of the checkpoints see the same open-tail sizes (0 to ~1350
# rows) and differ only in age.
AGE_OPS = 10 * AGE_BLOCKS * HISTORY_BLOCK_ROWS // 9 + 1
HISTORY_BYTES_PER_OP = 56  # 48 B of history columns + 8 B of deviation
JOURNAL_APPENDS = 2000


def _tenths(values):
    k = max(1, len(values) // 10)
    return statistics.median(values[:k]), statistics.median(values[-k:])


def _journal_append_seconds(directory):
    """Median seconds per append of each record kind a session writes."""
    graph = random_task_graph(16, seed=16)
    records = {
        "collective": {
            "kind": "collective", "op": "broadcast", "root": 3,
            "nbytes": 8388608.0, "machines": None,
        },
        "mapping": {"kind": "mapping", "volumes": pack_float64(graph.volumes)},
        # The list form mapping records had before volumes were packed.
        "mapping_list_form": {"kind": "mapping", "volumes": graph.volumes.tolist()},
    }
    out = {}
    with SnapshotJournal(os.path.join(directory, "bench.journal")) as journal:
        for kind, record in records.items():
            passes = []
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(JOURNAL_APPENDS // 5):
                    journal.append_json(record)
                passes.append((time.perf_counter() - t0) / (JOURNAL_APPENDS // 5))
            out[kind] = statistics.median(passes)
    return out


def test_checkpoint_cost_is_flat_with_age(trace_16, tmp_path, emit):
    directory = tmp_path / "age"
    session = TraceSession(
        trace_16,
        threshold=10.0,
        persistence=PersistenceConfig(directory=directory, checkpoint_every=AGE_CADENCE),
    )
    store = session._store
    save, checkpoint = store.save, session.checkpoint
    saves, checkpoints, sizes = [], [], []

    def timed_save(arrays, meta):
        t0 = time.perf_counter()
        path = save(arrays, meta)
        saves.append(time.perf_counter() - t0)
        meta = read_checkpoint(path).meta
        sizes.append((os.path.getsize(path), len(json.dumps(meta, sort_keys=True))))
        return path

    def timed_checkpoint():
        t0 = time.perf_counter()
        path = checkpoint()
        checkpoints.append(time.perf_counter() - t0)
        return path

    store.save, session.checkpoint = timed_save, timed_checkpoint
    n = trace_16.n_machines
    graph = random_task_graph(8, seed=8)
    for k in range(AGE_OPS):
        if k % 5 == 4:
            session.map_tasks(graph)
        else:
            session.broadcast(root=k % n)
    session.close()
    counters = session.instrumentation.counters
    assert session.stats.recalibrations == 0
    assert counters["session.checkpoint.history_block_written"] == AGE_BLOCKS

    largest, meta_bytes = max(sizes)
    size_bound = HISTORY_BLOCK_ROWS * HISTORY_BYTES_PER_OP + meta_bytes + 2048
    save_first, save_last = _tenths(saves)
    ckpt_first, ckpt_last = _tenths(checkpoints)
    journal = _journal_append_seconds(tmp_path)
    record = bench_record(
        "persistence_checkpoint_age",
        seeds=[16],
        n_machines=n,
        operations=AGE_OPS,
        checkpoint_every=AGE_CADENCE,
        history_block_rows=HISTORY_BLOCK_ROWS,
        sealed_blocks=AGE_BLOCKS,
        checkpoints=len(saves),
        save_seconds_first_tenth=save_first,
        save_seconds_last_tenth=save_last,
        save_age_ratio=save_last / save_first,
        checkpoint_seconds_first_tenth=ckpt_first,
        checkpoint_seconds_last_tenth=ckpt_last,
        checkpoint_bytes_max=largest,
        checkpoint_bytes_median=statistics.median(size for size, _ in sizes),
        checkpoint_bytes_last=sizes[-1][0],
        checkpoint_bytes_bound=size_bound,
        metadata_bytes=meta_bytes,
        journal_append_seconds=journal,
    )
    write_bench_json(BENCH_JSON, record)
    emit(
        f"checkpoint cost against age ({AGE_OPS} ops, {AGE_BLOCKS} sealed blocks, "
        f"every {AGE_CADENCE}):\n"
        f"  save        first tenth {save_first * 1e3:.3f} ms  "
        f"last tenth {save_last * 1e3:.3f} ms  (x{save_last / save_first:.2f})\n"
        f"  checkpoint  first tenth {ckpt_first * 1e3:.3f} ms  "
        f"last tenth {ckpt_last * 1e3:.3f} ms\n"
        f"  file size   max {largest} B (bound {size_bound} B), "
        f"last {sizes[-1][0]} B\n"
        + "".join(
            f"  journal     {kind:<18} {sec * 1e6:7.1f} us/append\n"
            for kind, sec in journal.items()
        )
        + f"  (wrote {BENCH_JSON.name})"
    )

    assert largest <= size_bound, (
        f"a checkpoint of {largest} B exceeds one open block of history "
        f"plus metadata ({size_bound} B)"
    )
    if os.environ.get("REPRO_PERF_STRICT") == "1":
        assert save_last <= 1.5 * save_first, (
            f"last-tenth save {save_last * 1e3:.3f} ms is more than 1.5x the "
            f"first tenth's {save_first * 1e3:.3f} ms"
        )
