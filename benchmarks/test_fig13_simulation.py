"""Fig 13 — four-arm comparison on the simulated large-scale cluster.

Paper shape at Norm(N_E) ≈ 0.1: Topology-aware ≈ Baseline (static topology
knowledge is useless under dynamics); RPCA 25-40% better than both and
10-15% better than Heuristics; CDFs preserve the ordering.
"""

import numpy as np

from repro.experiments import fig13_simulation
from repro.experiments.report import format_table
from repro.netsim.background import BackgroundConfig
from repro.netsim.topology import GBIT

MB = 1024 * 1024


def test_fig13_simulated_cluster(benchmark, emit):
    result = benchmark.pedantic(
        fig13_simulation.run,
        kwargs=dict(
            n_racks=16,
            servers_per_rack=16,
            cluster_size=24,
            background=BackgroundConfig(
                n_pairs=160, message_bytes=100 * MB, mean_wait_seconds=1.0
            ),
            n_snapshots=20,
            time_step=10,
            gap_seconds=20.0,
            repetitions=60,
            solver="ialm",
            core_bandwidth=5.0 * GBIT,  # 3.2:1 oversubscription as in the paper
            seed=0,
        ),
        rounds=1,
        iterations=1,
    )

    emit(
        format_table(
            ["strategy", "broadcast", "scatter", "topo-mapping"],
            result.normalized_table(),
            title=(
                f"Fig 13a: normalized means in the simulator "
                f"(Norm(N_E) = {result.norm_ne:.3f})"
            ),
        )
    )
    cdf_rows = []
    for name in result.broadcast.times:
        v, _ = result.broadcast_cdf(name)
        cdf_rows.append((name, *np.percentile(v, [25, 50, 75]).round(4)))
    emit(format_table(["strategy", "p25", "p50", "p75"], cdf_rows,
                      title="Fig 13b: broadcast CDF quartiles (s)"))

    norm = result.broadcast.normalized_means()
    # RPCA beats Baseline and the static Topology-aware arm.
    assert result.broadcast.improvement("RPCA", "Baseline") > 0.10
    assert result.broadcast.improvement("RPCA", "Topology-aware") > 0.05
    # Topology-aware is NOT competitive with RPCA (the paper's headline for
    # this figure): it tracks Baseline within noise rather than RPCA.
    assert norm["Topology-aware"] > norm["RPCA"]
    # RPCA at least matches Heuristics.
    assert result.broadcast.mean("RPCA") <= result.broadcast.mean("Heuristics") * 1.05
    # Scatter and mapping orderings.
    assert result.scatter.improvement("RPCA", "Baseline") > 0.0
    assert result.mapping.improvement("RPCA", "Baseline") > 0.0
