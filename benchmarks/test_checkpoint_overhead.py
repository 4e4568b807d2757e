"""Crash-safety tax: journaled-checkpoint overhead on the steady-state path.

Persistence must be cheap enough to leave on: the write-ahead journal adds
a tiny append to every operation and a full checkpoint every
``checkpoint_every`` operations. The benchmark measures both against the
plain per-operation cost across TP-window sizes (the window sets the
checkpoint's array payload), and the budget test bounds checkpointing's
share of serving time at the paper-scale ``steady-durable`` configuration
(196 instances, a checkpoint every 50 operations). Recovery latency
(checkpoint load + journal replay) is reported alongside, since it bounds
the restart blackout after a crash.

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

import numpy as np
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


def _checkpoint_share(trace, directory, seed):
    """Share of serving time spent in checkpoints over a steady session.

    The ``steady-durable`` benchmark workload's serving mix: collectives
    with random roots, a 16-task mapping every 5th operation, the journal
    on and a checkpoint every :data:`SHARE_CADENCE` operations.
    """
    session = TraceSession(
        trace,
        threshold=5.0,
        solver="ialm",
        persistence=PersistenceConfig(
            directory=directory, checkpoint_every=SHARE_CADENCE, fsync=False
        ),
    )
    checkpoint, spent = session.checkpoint, []

    def timed_checkpoint():
        t0 = time.perf_counter()
        path = checkpoint()
        spent.append(time.perf_counter() - t0)
        return path

    session.checkpoint = timed_checkpoint
    rng = np.random.default_rng(seed)
    kinds = ("broadcast", "scatter", "reduce", "gather")
    n = trace.n_machines
    for i in range(SHARE_WARMUP + SHARE_OPS):
        if i == SHARE_WARMUP:
            # Timed from here: the first visits of each root, which build
            # its tree, are behind.
            spent.clear()
            t0 = time.perf_counter()
        if i % 5 == 4:
            session.map_tasks(random_task_graph(16, seed=int(rng.integers(2**31))))
        else:
            session.run_collective(kinds[i % 4], root=int(rng.integers(n)))
    elapsed = time.perf_counter() - t0
    session.close()
    assert session.stats.recalibrations == 0
    assert len(spent) == SHARE_OPS // SHARE_CADENCE
    return sum(spent) / elapsed, sum(spent) / len(spent), elapsed / SHARE_OPS


# The checkpoint budget, as a share of serving time at the paper-scale
# ``steady-durable`` configuration. A traced run of that workload spends
# 14.4% there (save 10.8% + capture 3.6%); this test reads s = 9-14%
# untraced on a 2-CPU VM. A checkpoint k times as costly reads
# k*s / (1 + (k-1)*s), so 25% leaves 1.8x or more headroom for host noise
# and still fails the x4.6 growth of checkpoints that rewrote the whole
# history, which reads 31-43% over that range.
SHARE_BUDGET = 0.25
SHARE_CADENCE = 50
SHARE_WARMUP = 1000
SHARE_OPS = 2000


def test_checkpoint_share_within_steady_durable_budget(tmp_path, emit):
    """Checkpointing costs at most :data:`SHARE_BUDGET` of the serving time
    of a 196-instance steady session, median of three sessions."""
    calm = DynamicsConfig(
        volatility_sigma=0.02, spike_probability=0.0, hotspot_probability=0.0
    )
    trace = generate_trace(
        TraceConfig(n_machines=196, n_snapshots=40, dynamics=calm), seed=1
    )
    runs = [_checkpoint_share(trace, tmp_path / f"run{i}", i) for i in range(3)]
    share, ckpt, per_op = sorted(runs)[1]
    emit(
        f"checkpoint share at 196 instances, every {SHARE_CADENCE} of "
        f"{SHARE_OPS} operations: "
        + ", ".join(f"{run[0]:.1%}" for run in runs)
        + f"; median run {ckpt * 1e3:.3f} ms a checkpoint, "
        f"{per_op * 1e6:.1f} us an operation"
    )
    assert share < SHARE_BUDGET, (
        f"checkpoints take {share:.1%} of serving time, over the "
        f"{SHARE_BUDGET:.0%} budget"
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
