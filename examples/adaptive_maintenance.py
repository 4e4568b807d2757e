#!/usr/bin/env python3
"""Adaptive update maintenance (paper Algorithm 1, Fig 6).

Glues two network regimes together — mid-trace, the cluster's links degrade
sharply (think: VMs migrated behind a congested aggregation switch) — and
drives a :class:`repro.TraceSession` through it. The session keeps using the
constant component while reality matches expectations, detects the regime
change from the expected-vs-real gap, re-calibrates, and recovers.

Run:  python examples/adaptive_maintenance.py
"""

from __future__ import annotations

import numpy as np

from repro import TraceConfig, TraceSession, generate_trace
from repro.cloudsim.bands import BandTiers
from repro.cloudsim.dynamics import DynamicsConfig
from repro.cloudsim.trace import CalibrationTrace
from repro.core.maintenance import MaintenanceDecision


def two_regime_trace() -> CalibrationTrace:
    dyn = DynamicsConfig(volatility_sigma=0.05, spike_probability=0.01,
                         hotspot_probability=0.01)
    calm = generate_trace(
        TraceConfig(n_machines=12, n_snapshots=20, dynamics=dyn), seed=1
    )
    degraded = generate_trace(
        TraceConfig(
            n_machines=12,
            n_snapshots=20,
            dynamics=dyn,
            tiers=BandTiers(
                same_rack_bandwidth=125e6 / 4, cross_rack_bandwidth=50e6 / 4
            ),
        ),
        seed=2,
    )
    return CalibrationTrace(
        alpha=np.concatenate([calm.alpha, degraded.alpha]),
        beta=np.concatenate([calm.beta, degraded.beta]),
        timestamps=np.arange(40, dtype=float) * 1800.0,
    )


def main() -> None:
    trace = two_regime_trace()
    session = TraceSession(
        trace, time_step=10, threshold=1.0, solver="ialm", calibration_cost=45.0
    )
    print(f"initial calibration: Norm(N_E)={session.norm_ne:.3f} "
          f"({session.verdict}); threshold=100% (paper default)\n")
    print(f"{'op':>3}  {'snapshot':>8}  {'expected':>9}  {'observed':>9}  decision")
    rng = np.random.default_rng(0)
    for i in range(25):
        rec = session.broadcast(root=int(rng.integers(12)))
        marker = "  <-- RE-CALIBRATED" if rec.decision is MaintenanceDecision.RECALIBRATE else ""
        print(
            f"{i:>3}  {rec.snapshot:>8}  {rec.expected:>8.3f}s  "
            f"{rec.elapsed:>8.3f}s  {rec.decision.value}{marker}"
        )
    s = session.stats
    print(
        f"\n{s.operations} operations, {s.recalibrations} re-calibration(s); "
        f"communication {s.communication_seconds:.1f}s + maintenance overhead "
        f"{s.overhead_seconds:.1f}s"
    )
    print("(the regime change at snapshot 20 triggers exactly the Fig 6 loop)")


if __name__ == "__main__":
    main()
