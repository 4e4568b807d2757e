#!/usr/bin/env python3
"""Real-world applications: N-body and conjugate gradient (paper Fig 9).

Both applications run their *numerics* for real — a leapfrog gravity
integrator and an actual CG solve on a generated sparse SPD system — while
their distributed execution (all-to-all per step as gather + broadcast, per
MPICH2) is priced on a replayed network trace under each strategy.

Run:  python examples/nbody_cg_applications.py
"""

from __future__ import annotations

from repro import TraceConfig, generate_trace
from repro.apps.cg import CGConfig, build_spd_system, cg_profile, run_cg_numerics
from repro.apps.nbody import NBodyConfig, NBodySimulation, nbody_profile
from repro.experiments.fig09_apps import run_cg, run_nbody_steps
from repro.experiments.report import format_table

MB = 1024 * 1024


def demo_real_numerics() -> None:
    print("=== real numerics =========================================")
    sim = NBodySimulation(64, seed=1)
    e0 = sim.total_energy()
    sim.run(50, dt=1e-3)
    print(
        f"N-body: 64 bodies, 50 leapfrog steps; energy drift "
        f"{abs(sim.total_energy() - e0) / abs(e0):.2e}"
    )

    cfg = CGConfig(vector_size=20_000)
    a, b = build_spd_system(cfg, seed=2)
    import numpy as np

    x, iters = run_cg_numerics(a, b, rtol=cfg.rtol)
    res = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
    print(f"CG: n=20000, kappa~{cfg.condition_number:.0f}; "
          f"converged in {iters} iterations, residual {res:.1e}")
    print()


def demo_distributed_breakdown() -> None:
    print("=== distributed execution (replayed trace) ================")
    trace = generate_trace(TraceConfig(n_machines=16, n_snapshots=24), seed=42)

    cg_res = run_cg(trace, vector_sizes=(8000, 256000), time_step=10, solver="ialm")
    rows = [
        (int(p.x), p.strategy, p.breakdown.computation, p.breakdown.communication,
         p.breakdown.overhead, p.breakdown.total)
        for p in cg_res.points
    ]
    print(format_table(
        ["vector size", "strategy", "comp (s)", "comm (s)", "overhead (s)", "total (s)"],
        rows, title="CG time breakdown (paper Fig 9a)",
    ))
    print()

    nb_res = run_nbody_steps(
        trace, step_counts=(160, 2560), message_bytes=1 * MB, time_step=10, solver="ialm"
    )
    rows = [
        (int(p.x), p.strategy, p.breakdown.communication, p.breakdown.total)
        for p in nb_res.points
    ]
    print(format_table(
        ["#Step", "strategy", "comm (s)", "total (s)"],
        rows, title="N-body (1 MB messages) — paper Fig 9b",
    ))
    print()
    big = 2560.0
    print(
        f"N-body @ #Step=2560: RPCA vs Baseline "
        f"{nb_res.improvement(big, 'RPCA', 'Baseline'):+.1%} "
        "(paper: ~25%); vs Heuristics "
        f"{nb_res.improvement(big, 'RPCA', 'Heuristics'):+.1%} (paper: ~10%)"
    )


def main() -> None:
    demo_real_numerics()
    demo_distributed_breakdown()


if __name__ == "__main__":
    main()
