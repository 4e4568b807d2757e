"""Fig 11 — detailed study at Norm(N_E) = 0.2.

Paper shape: more dynamic than real EC2; RPCA still outperforms — 20-28%
over Baseline, 12-20% over Heuristics — but less than at 0.1, and the
broadcast CDF preserves the arm ordering.
"""

import numpy as np

from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.experiments import fig11_ne02
from repro.experiments.report import format_table


def test_fig11_detailed_ne02(benchmark, emit):
    trace = generate_trace(TraceConfig(n_machines=32, n_snapshots=30), seed=13)

    result = benchmark.pedantic(
        fig11_ne02.run,
        args=(trace,),
        kwargs=dict(target_norm_ne=0.2, repetitions=100, solver="ialm", seed=0),
        rounds=1,
        iterations=1,
    )

    cmp = result.comparison
    emit(
        format_table(
            ["strategy", "broadcast", "scatter", "topo-mapping"],
            cmp.normalized_table(),
            title=(
                f"Fig 11a: normalized means at Norm(N_E) = "
                f"{result.achieved_norm_ne:.3f}, 32 VMs, 100 reps"
            ),
        )
    )
    cdf_rows = []
    for name in cmp.broadcast.times:
        v, _ = cmp.broadcast_cdf(name)
        cdf_rows.append((name, *np.percentile(v, [25, 50, 75]).round(4)))
    emit(format_table(["strategy", "p25", "p50", "p75"], cdf_rows,
                      title="Fig 11b: broadcast CDF quartiles (s)"))

    assert abs(result.achieved_norm_ne - 0.2) < 0.03
    # RPCA still beats Baseline on every application at this noise level.
    for res in (cmp.broadcast, cmp.scatter, cmp.mapping):
        assert res.improvement("RPCA", "Baseline") > 0.0
    assert cmp.broadcast.improvement("RPCA", "Baseline") > 0.10
