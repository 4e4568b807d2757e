"""Fig 9(b, c) — N-body across #Step and across message sizes.

Run on 64 VMs: per-machine computation shrinks with cluster size, so the
paper's communication-dominant regime (their 196 instances) needs a
reasonably large cluster.

Paper shape: as #Step (9b) or message size (9c) grows, overheads amortize
and the network-aware gain approaches ~25% over Baseline and ~10% over
Heuristics in total time (36% in communication time).
"""

from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.experiments import fig09_apps
from repro.experiments.report import format_table

KB = 1024
MB = 1024 * 1024
STEPS = (10, 40, 160, 640, 2560)
SIZES = (1 * KB, 8 * KB, 64 * KB, 256 * KB, 1 * MB)


def test_fig09b_nbody_steps(benchmark, emit):
    trace = generate_trace(TraceConfig(n_machines=64, n_snapshots=30), seed=10)

    result = benchmark.pedantic(
        fig09_apps.run_nbody_steps,
        args=(trace,),
        kwargs=dict(step_counts=STEPS, message_bytes=1.0 * MB, time_step=10, solver="ialm"),
        rounds=1,
        iterations=1,
    )

    emit(
        format_table(
            ["#Step", "strategy", "comp (s)", "comm (s)", "overhead (s)", "total (s)"],
            result.as_rows(),
            title="Fig 9b: N-body vs #Step (1 MB messages), 64 VMs",
        )
    )

    gains = [result.improvement(float(s), "RPCA", "Baseline") for s in STEPS]
    assert gains[-1] > gains[0]  # overhead amortizes with more steps
    assert gains[-1] > 0.10
    # Communication-time improvement at the top (paper: ~36%).
    comm = {
        p.strategy: p.breakdown.communication
        for p in result.points
        if p.x == float(STEPS[-1])
    }
    assert 1.0 - comm["RPCA"] / comm["Baseline"] > 0.15


def test_fig09c_nbody_message_size(benchmark, emit):
    trace = generate_trace(TraceConfig(n_machines=64, n_snapshots=30), seed=11)

    result = benchmark.pedantic(
        fig09_apps.run_nbody_msgsize,
        args=(trace,),
        kwargs=dict(message_sizes=SIZES, n_steps=2560, time_step=10, solver="ialm"),
        rounds=1,
        iterations=1,
    )

    emit(
        format_table(
            ["message (bytes)", "strategy", "comp (s)", "comm (s)", "overhead (s)", "total (s)"],
            result.as_rows(),
            title="Fig 9c: N-body vs message size (#Step = 2560), 64 VMs",
        )
    )

    gains = [result.improvement(float(s), "RPCA", "Baseline") for s in SIZES]
    assert gains[-1] > gains[0]  # larger messages → larger improvement
    assert gains[-1] > 0.10
