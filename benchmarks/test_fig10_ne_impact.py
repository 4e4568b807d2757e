"""Fig 10 — impact of Norm(N_E) on optimization effectiveness.

Paper shape: the RPCA-over-Baseline improvement decays as Norm(N_E) grows —
above 40% when the network is stable (< 0.1), under 20% beyond ≈0.2 — and
RPCA's margin over Heuristics is positive throughout, with EC2 sitting at
the stable end (≈0.1).
"""

import numpy as np

from repro.cloudsim.dynamics import DynamicsConfig
from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.experiments import fig10_ne_impact
from repro.experiments.report import format_table

TARGETS = (0.05, 0.1, 0.2, 0.3, 0.5)


def test_fig10_norm_ne_impact(benchmark, emit):
    # A calm base trace (intrinsic Norm(N_E) well below the smallest target)
    # lets the noise injection sweep the whole range, as in the paper where
    # noise is added on top of the measured EC2 trace.
    calm = DynamicsConfig(
        volatility_sigma=0.02,
        spike_probability=0.002,
        spike_severity=3.0,
        hotspot_probability=0.005,
        hotspot_severity=1.0,
    )
    trace = generate_trace(
        TraceConfig(n_machines=32, n_snapshots=30, dynamics=calm), seed=12
    )

    result = benchmark.pedantic(
        fig10_ne_impact.run,
        args=(trace,),
        kwargs=dict(targets=TARGETS, repetitions=80, solver="ialm", seed=0),
        rounds=1,
        iterations=1,
    )

    emit(
        format_table(
            [
                "Norm(N_E)",
                "bcast vs Baseline",
                "scatter vs Baseline",
                "mapping vs Baseline",
                "bcast vs Heuristics",
            ],
            result.as_rows(),
            title="Fig 10: expected improvement of RPCA vs Norm(N_E), 32 VMs",
        )
    )

    pts = result.points
    achieved = [p.achieved_norm_ne for p in pts]
    assert all(b > a for a, b in zip(achieved, achieved[1:]))  # targets hit in order
    # Decay of the broadcast improvement from the stable to the dynamic end.
    bcast = [p.broadcast_vs_baseline for p in pts]
    assert bcast[0] > bcast[-1]
    assert bcast[0] > 0.25  # strong gains on a stable network
    # Beyond ~0.5 the improvement has decayed substantially relative to the
    # stable end. (The decay is shallower than the paper's knee because the
    # synthetic constant component has a wide 2.5x tier gap that survives
    # heavy noise; see EXPERIMENTS.md.)
    assert bcast[-1] < 0.75 * bcast[0]
    # Scatter decays too (compare ends, allowing noise). Mapping's
    # sum-of-edges objective is insensitive to symmetric noise, so we only
    # require it to remain a (small) positive gain at the stable end.
    assert pts[0].scatter_vs_baseline > pts[-1].scatter_vs_baseline - 0.05
    assert pts[0].mapping_vs_baseline > 0.0
