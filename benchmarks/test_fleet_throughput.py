"""Fleet throughput: 8 synthetic clusters, parallel vs serial.

The tentpole claim for the fleet scheduler: on a multi-core box, running
8 clusters' Algorithm-1 sessions across 4 workers completes the identical
operation plan at >= 3x the serial throughput — while every cluster's
``P_D`` stays **bit-identical** to the serial engine (parity is asserted
unconditionally; only the speedup needs cores, so it is skipped on
machines with fewer than 4).

Per-cluster work is deliberately heavy relative to the per-batch IPC
(32-machine clusters, a dynamic trace forcing frequent re-solves):
the benchmark measures scheduling, shared-memory transport and capsule
round-trips under realistic solver load, not queue ping-pong.
"""

import os
import time

import numpy as np
import pytest

from repro.cloudsim.dynamics import DynamicsConfig
from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.fleet import ClusterSpec, FleetConfig, FleetScheduler

N_CLUSTERS = 8
# The CI fleet job sweeps this via its worker matrix; 4 is the headline run.
N_WORKERS = int(os.environ.get("REPRO_FLEET_WORKERS", "4"))


@pytest.fixture(scope="module")
def fleet_clusters():
    cfg = TraceConfig(
        n_machines=32,
        n_snapshots=24,
        dynamics=DynamicsConfig(
            volatility_sigma=0.06, spike_probability=0.03, migration_rate=0.03
        ),
    )
    return [
        ClusterSpec(name=f"cluster-{i:02d}", trace=generate_trace(cfg, seed=800 + i))
        for i in range(N_CLUSTERS)
    ]


def _config(n_workers: int) -> FleetConfig:
    return FleetConfig(
        n_workers=n_workers, window=10, threshold=1.0, operations=48, batch_size=8
    )


def test_fleet_throughput_and_parity(fleet_clusters, emit):
    cfg = _config(N_WORKERS)
    scheduler = FleetScheduler(fleet_clusters, cfg)

    t0 = time.perf_counter()
    serial = scheduler.run_serial()
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = FleetScheduler(fleet_clusters, cfg).run()
    parallel_s = time.perf_counter() - t0

    # Parity first — it must hold on any machine, any worker count.
    for name in sorted(parallel.clusters):
        p, s = parallel.clusters[name], serial.clusters[name]
        assert np.array_equal(p.constant_row, s.constant_row), (
            f"{name}: parallel P_D diverged from serial"
        )
        assert p.norm_ne == s.norm_ne
        assert p.recalibrations == s.recalibrations

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    emit(
        f"fleet throughput: {N_CLUSTERS} clusters x {cfg.operations} ops, "
        f"{N_WORKERS} workers\n"
        f"  serial:   {serial_s:.2f} s ({serial.total_operations / serial_s:.1f} ops/s)\n"
        f"  parallel: {parallel_s:.2f} s "
        f"({parallel.total_operations / parallel_s:.1f} ops/s)\n"
        f"  speedup:  {speedup:.2f}x (P_D bit-identical on all clusters)"
    )

    cores = os.cpu_count() or 1
    if cores < N_WORKERS:
        pytest.skip(
            f"speedup assertion needs >= {N_WORKERS} cores (have {cores}); "
            "parity verified above"
        )
    # The headline 3x target is for the 4-worker run; with 2 workers the
    # ceiling is 2x, so demand a proportionate 1.5x there.
    target = 3.0 if N_WORKERS >= 4 else 1.5
    assert speedup >= target, (
        f"expected >= {target}x fleet speedup with {N_WORKERS} workers on "
        f"{cores} cores, measured {speedup:.2f}x"
    )


def test_fleet_scales_with_workers(fleet_clusters, emit):
    """Doubling workers must not slow the fleet down (monotone throughput)."""
    cores = os.cpu_count() or 1
    if cores < 4:
        pytest.skip(f"scaling curve needs >= 4 cores (have {cores})")
    rows = []
    for n_workers in (1, 2, 4):
        t0 = time.perf_counter()
        report = FleetScheduler(fleet_clusters, _config(n_workers)).run()
        elapsed = time.perf_counter() - t0
        rows.append((n_workers, elapsed, report.total_operations / elapsed))
    emit(
        "fleet scaling:\n"
        + "\n".join(
            f"  {w} worker(s): {s:.2f} s ({t:.1f} ops/s)" for w, s, t in rows
        )
    )
    # 20% slack absorbs scheduling jitter on busy CI runners.
    assert rows[1][2] >= rows[0][2] * 0.8
    assert rows[2][2] >= rows[1][2] * 0.8
