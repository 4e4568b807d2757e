"""Fig 9(a) — CG total-time breakdown across vector sizes.

Paper shape: CG is communication-bound (>90% comm in the baseline); at small
vector sizes the network-aware arms lose to MPICH2 (calibration + RPCA
overheads dominate); as the size grows the gain compensates — ~31%
improvement over Baseline and ~14% over Heuristics at the top.
"""

from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.experiments import fig09_apps
from repro.experiments.report import format_table

VECTOR_SIZES = (1000, 8000, 64000, 256000, 1024000)


def test_fig09a_cg_breakdown(benchmark, emit):
    trace = generate_trace(TraceConfig(n_machines=32, n_snapshots=30), seed=9)

    result = benchmark.pedantic(
        fig09_apps.run_cg,
        args=(trace,),
        kwargs=dict(vector_sizes=VECTOR_SIZES, time_step=10, solver="ialm", seed=0),
        rounds=1,
        iterations=1,
    )

    emit(
        format_table(
            ["vector size", "strategy", "comp (s)", "comm (s)", "overhead (s)", "total (s)"],
            result.as_rows(),
            title="Fig 9a: CG execution-time breakdown, 32 VMs",
        )
    )

    big = float(VECTOR_SIZES[-1])
    small = float(VECTOR_SIZES[0])
    # Communication-bound at scale.
    bd = next(
        p.breakdown for p in result.points if p.strategy == "Baseline" and p.x == big
    )
    assert bd.communication / bd.total > 0.9
    # Overheads make RPCA lose at the smallest size, win at the largest.
    assert result.improvement(small, "RPCA", "Baseline") < 0.0
    assert result.improvement(big, "RPCA", "Baseline") > 0.15
    # Monotone gain with size.
    gains = [result.improvement(float(v), "RPCA", "Baseline") for v in VECTOR_SIZES]
    assert gains[-1] > gains[0]
