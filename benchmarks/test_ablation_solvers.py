"""Ablation — RPCA solver choice (DESIGN.md Sec 5).

Compares the paper's IALM solver against the exact row-constant median on
(a) constant-row recovery accuracy against the generator's ground truth and
(b) the downstream broadcast improvement they enable. Finding to verify:
the solvers are interchangeable for this workload (the row-constant
projection dominates), so the paper's RPCA choice is about generality, not
accuracy.
"""

import numpy as np

from repro.cloudsim.bands import derive_bands
from repro.cloudsim.placement import place_cluster
from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.core.decompose import decompose
from repro.core.metrics import relative_difference
from repro.experiments.harness import ReplayContext, collective_comparison
from repro.experiments.report import format_table
from repro.strategies import BaselineStrategy, RPCAStrategy

MB = 1024 * 1024
SOLVERS = ("ialm", "row_constant")


def test_ablation_solver_choice(benchmark, emit):
    n = 32
    placement = place_cluster(n, seed=1)
    trace = generate_trace(
        TraceConfig(n_machines=n, n_snapshots=30), seed=1, placement=placement
    )
    # Ground-truth constant weights from the generator's bands.
    bands = derive_bands(placement, seed=np.random.default_rng(1))

    def run_all():
        out = {}
        tp = trace.tp_matrix(8 * MB, start=0, count=10)
        for solver in SOLVERS:
            dec = decompose(tp, solver=solver)
            ctx = ReplayContext(trace=trace, time_step=10)
            arms = [
                BaselineStrategy(),
                RPCAStrategy(solver, time_step=10),
            ]
            cmp = collective_comparison(ctx, arms, repetitions=60, seed=7)
            out[solver] = (dec, cmp.improvement("RPCA", "Baseline"))
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    accuracies = {}
    for solver, (dec, improvement) in results.items():
        rows.append(
            (solver, dec.norm_ne, dec.solver_iterations, improvement)
        )
        accuracies[solver] = dec.norm_ne
    emit(
        format_table(
            ["solver", "Norm(N_E)", "iterations", "bcast improvement vs Baseline"],
            rows,
            title="Ablation: RPCA solver choice (32 VMs)",
        )
    )

    # All solvers land on nearly the same error norm ...
    vals = list(accuracies.values())
    assert max(vals) - min(vals) < 0.05
    # ... and all enable a solid improvement over Baseline.
    for solver, (_, improvement) in results.items():
        assert improvement > 0.1, solver


def test_ablation_constant_row_extraction(benchmark, emit):
    # Column-mean vs top-singular-vector extraction from IALM's low-rank D.
    trace = generate_trace(TraceConfig(n_machines=24, n_snapshots=20), seed=3)
    tp = trace.tp_matrix(8 * MB, start=0, count=10)

    def run_both():
        mean_row = decompose(tp, solver="ialm", extraction="mean").constant.row
        sv_row = decompose(tp, solver="ialm", extraction="top_sv").constant.row
        return mean_row, sv_row

    mean_row, sv_row = benchmark.pedantic(run_both, rounds=1, iterations=1)
    diff = relative_difference(sv_row, mean_row)
    emit(f"Ablation: extraction rules differ by {diff:.2%} (relative L1)")
    assert diff < 0.05  # the two extraction rules agree on this workload
