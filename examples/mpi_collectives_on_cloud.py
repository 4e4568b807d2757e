#!/usr/bin/env python3
"""MPI collective operations on an EC2-like virtual cluster (paper Fig 7).

Compares the paper's three EC2 arms — Baseline (MPICH binomial), Heuristics
(direct mean of measurements) and RPCA — on broadcast and scatter over a
replayed calibration trace, reporting means normalized to Baseline plus the
broadcast CDF quartiles.

Run:  python examples/mpi_collectives_on_cloud.py [n_machines]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import BaselineStrategy, HeuristicStrategy, RPCAStrategy, TraceConfig, generate_trace
from repro.experiments.harness import ReplayContext, collective_comparison
from repro.experiments.report import format_table

MB = 1024 * 1024


def main(n_machines: int = 24) -> None:
    trace = generate_trace(
        TraceConfig(n_machines=n_machines, n_snapshots=30), seed=2014
    )
    ctx = ReplayContext(trace=trace, time_step=10, nbytes=8 * MB)
    arms = [
        BaselineStrategy(),
        HeuristicStrategy("mean"),
        RPCAStrategy("ialm", time_step=10),
    ]

    bcast = collective_comparison(
        ctx, arms, op="broadcast", nbytes=8 * MB, repetitions=80, seed=1
    )
    scat = collective_comparison(
        ctx, arms, op="scatter", nbytes=8 * MB / n_machines, repetitions=80, seed=2
    )

    rpca = next(a for a in arms if isinstance(a, RPCAStrategy))
    print(f"cluster: {n_machines} VMs | Norm(N_E) = {rpca.norm_ne:.3f}")
    print()
    rows = [
        (name, bcast.normalized_means()[name], scat.normalized_means()[name])
        for name in bcast.times
    ]
    print(
        format_table(
            ["strategy", "broadcast (norm.)", "scatter (norm.)"],
            rows,
            title="Average elapsed time normalized to Baseline (lower is better)",
        )
    )

    print()
    print("Broadcast CDF quartiles (seconds):")
    qrows = []
    for name, times in bcast.times.items():
        q = np.percentile(times, [25, 50, 75, 95])
        qrows.append((name, *q))
    print(format_table(["strategy", "p25", "p50", "p75", "p95"], qrows))

    print()
    print(
        f"RPCA vs Baseline:   {bcast.improvement('RPCA', 'Baseline'):+.1%}"
        "   (paper: 20-40%)"
    )
    print(
        f"RPCA vs Heuristics: {bcast.improvement('RPCA', 'Heuristics'):+.1%}"
        "   (paper: 8-20%)"
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 24)
