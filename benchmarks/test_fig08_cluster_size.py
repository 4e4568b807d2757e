"""Fig 8 — RPCA improvement over Baseline vs cluster size and message size.

Paper shape: the improvement on 196 instances exceeds the one on 64 — the
small cluster packs into one rack (near-uniform links, little to exploit)
while 196 VMs necessarily span racks and mix performance tiers — and the
improvement is relatively larger for larger messages. Individual cells are
noisy (heavy-tailed interference), so the bench averages several
independently placed clusters, like the paper's repeated runs.
"""

import numpy as np

from repro.experiments import fig08_cluster_size
from repro.experiments.report import format_table

MB = 1024 * 1024
SEEDS = (0, 1, 2, 3)


def run_all():
    return [
        fig08_cluster_size.run(
            cluster_sizes=(64, 196),
            message_sizes=(1.0 * MB, 8.0 * MB),
            n_snapshots=30,
            time_step=10,
            repetitions=100,
            solver="ialm",
            colocation=1.0,
            seed=seed,
        )
        for seed in SEEDS
    ]


def test_fig08_cluster_and_message_size(benchmark, emit):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    mean_imp = {}
    for n in (64, 196):
        for msg in (1.0 * MB, 8.0 * MB):
            mean_imp[(n, msg)] = float(
                np.mean([r.improvement(n, msg) for r in results])
            )
    rows = [
        (n, msg / MB, mean_imp[(n, msg)])
        for n in (64, 196)
        for msg in (1.0 * MB, 8.0 * MB)
    ]
    emit(
        format_table(
            ["instances", "message (MB)", "mean RPCA improvement over Baseline"],
            rows,
            title=f"Fig 8: broadcast improvement, averaged over {len(SEEDS)} placements",
        )
    )

    # The large, rack-spanning cluster benefits more (paper's headline).
    assert mean_imp[(196, 8.0 * MB)] > mean_imp[(64, 8.0 * MB)]
    assert mean_imp[(196, 1.0 * MB)] > mean_imp[(64, 1.0 * MB)]
    # The large cluster's improvement is solidly positive.
    assert mean_imp[(196, 8.0 * MB)] > 0.05
    # Larger messages improve at least as much (small slack for noise).
    assert mean_imp[(196, 8.0 * MB)] >= mean_imp[(196, 1.0 * MB)] - 0.05
    # Placement mechanism: the big cluster crosses racks, the small does not.
    cells = {c.n_machines: c for c in results[0].cells}
    assert cells[196].cross_rack_fraction > cells[64].cross_rack_fraction
