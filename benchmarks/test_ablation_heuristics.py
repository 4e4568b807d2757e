"""Ablation — Heuristics variants (paper Sec V-A discussion).

The paper states that minimal-value and exponentially-weighted averages
"obtain similar results to the Heuristics approach" (the column mean), all
being per-link estimators. This bench verifies that claim and that RPCA
matches-or-beats the whole family on average.
"""

import numpy as np

from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.experiments.harness import ReplayContext, collective_comparison
from repro.experiments.report import format_table
from repro.strategies import BaselineStrategy, HeuristicStrategy, RPCAStrategy

MB = 1024 * 1024
SEEDS = (21, 22, 23)


def run_all():
    norm_means = []
    for seed in SEEDS:
        trace = generate_trace(TraceConfig(n_machines=48, n_snapshots=30), seed=seed)
        ctx = ReplayContext(trace=trace, time_step=10)
        arms = [
            BaselineStrategy(),
            HeuristicStrategy("mean"),
            HeuristicStrategy("min"),
            HeuristicStrategy("ewma", ewma_alpha=0.3),
            RPCAStrategy("ialm", time_step=10),
        ]
        res = collective_comparison(ctx, arms, repetitions=80, seed=seed)
        norm_means.append(res.normalized_means())
    return norm_means


def test_ablation_heuristic_variants(benchmark, emit):
    norm_means = benchmark.pedantic(run_all, rounds=1, iterations=1)

    names = list(norm_means[0])
    mean_norm = {n: float(np.mean([m[n] for m in norm_means])) for n in names}
    emit(
        format_table(
            ["strategy", "broadcast time (normalized to Baseline)"],
            sorted(mean_norm.items(), key=lambda kv: kv[1]),
            title=f"Ablation: heuristic variants, 48 VMs x {len(SEEDS)} traces",
        )
    )

    # The paper's claim: the three per-link heuristics behave similarly.
    heuristics = [mean_norm["Heuristics"], mean_norm["Heuristics-min"],
                  mean_norm["Heuristics-ewma"]]
    assert max(heuristics) - min(heuristics) < 0.12
    # All beat Baseline; RPCA at least matches the best heuristic.
    for h in heuristics:
        assert h < 1.0
    assert mean_norm["RPCA"] <= min(heuristics) * 1.03
