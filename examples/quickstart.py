#!/usr/bin/env python3
"""Quickstart: the paper's core loop in 60 lines.

1. Calibrate a virtual cluster (here: a synthetic EC2-like trace).
2. Decompose the temporal performance matrix with RPCA into a constant
   component plus a sparse error component (paper Fig 2).
3. Read the stability verdict from Norm(N_E).
4. Build a Fastest-Node-First broadcast tree from the constant component
   (paper Fig 1) and compare it against the MPICH binomial baseline.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import TraceConfig, binomial_tree, decompose, fnf_tree, generate_trace
from repro.collectives.exec_model import broadcast_time
from repro.experiments.report import format_table

MB = 1024 * 1024


def main() -> None:
    # --- 1. Calibrate -----------------------------------------------------
    # 16 VMs, 20 calibration snapshots 30 minutes apart (a synthetic stand-in
    # for the paper's SKaMPI ping-pong campaign on Amazon EC2).
    trace = generate_trace(TraceConfig(n_machines=16, n_snapshots=20), seed=7)
    tp = trace.tp_matrix(nbytes=8 * MB, start=0, count=10)  # time step = 10
    print(f"TP-matrix: {tp.n_snapshots} snapshots x {tp.n_machines}^2 links")

    # --- 2. Decompose ------------------------------------------------------
    dec = decompose(tp, solver="ialm")
    print(
        f"RPCA ({dec.solver}): {dec.solver_iterations} iterations, "
        f"converged={dec.solver_converged}"
    )

    # --- 3. Stability verdict ----------------------------------------------
    print(f"Norm(N_E) = {dec.norm_ne:.3f}  ->  network is {dec.report.verdict!r}")
    print("(paper: Amazon EC2 measured ~0.1 — network-aware optimization pays off)")

    # --- 4. Optimize and compare -------------------------------------------
    weights = dec.performance_matrix().weights
    rows = []
    for root in (0, 5, 11):
        fnf = fnf_tree(weights, root)
        bino = binomial_tree(trace.n_machines, root)
        # Price both trees on a *live* snapshot the optimizer never saw.
        live_a, live_b = trace.alpha[15], trace.beta[15]
        t_fnf = broadcast_time(fnf, live_a, live_b, 8 * MB)
        t_bin = broadcast_time(bino, live_a, live_b, 8 * MB)
        rows.append((root, t_bin, t_fnf, 1.0 - t_fnf / t_bin))
    print()
    print(
        format_table(
            ["root", "binomial (s)", "FNF on constant (s)", "improvement"],
            rows,
            title="8 MB broadcast, priced on a held-out live snapshot",
        )
    )

    mean_gain = float(np.mean([r[3] for r in rows]))
    print(f"\nMean improvement: {mean_gain:.1%} (paper reports 20-40% on EC2)")


if __name__ == "__main__":
    main()
