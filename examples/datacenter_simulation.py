#!/usr/bin/env python3
"""Datacenter simulation: interference and the Topology-aware arm (Figs 12-13).

Stands up the ns-2-substitute flow simulator — a two-level tree with Poisson
background traffic — then (a) shows how background intensity drives
Norm(N_E), and (b) runs the four-arm comparison including Topology-aware,
which only exists here because real clouds hide their topology.

A small datacenter (8 racks x 8 servers) keeps the run under a minute; the
core bandwidth is scaled to preserve the paper's 3.2:1 oversubscription.

Run:  python examples/datacenter_simulation.py
"""

from __future__ import annotations

from repro.experiments import fig12_interference, fig13_simulation
from repro.experiments.report import format_series, format_table
from repro.netsim.background import BackgroundConfig
from repro.netsim.topology import GBIT

MB = 1024 * 1024
CORE = 2.5 * GBIT  # 8 servers x 1 Gb/s vs 2.5 Gb/s uplink = 3.2:1


def main() -> None:
    print("=== Norm(N_E) vs background waiting time (Fig 12a) ========")
    lam = fig12_interference.run_lambda_sweep(
        lambdas=(1.0, 3.0, 10.0),
        message_bytes=100 * MB,
        n_pairs=48,
        n_racks=8,
        servers_per_rack=8,
        cluster_size=16,
        n_snapshots=8,
        gap_seconds=15.0,
        core_bandwidth=CORE,
        seed=0,
    )
    print(format_series("lambda (s)", "Norm(N_E)", lam.as_rows()))
    print()

    print("=== Norm(N_E) vs background message size (Fig 12b) ========")
    msg = fig12_interference.run_msgsize_sweep(
        message_sizes=(10 * MB, 100 * MB, 250 * MB),
        mean_wait_seconds=5.0,
        n_pairs=48,
        n_racks=8,
        servers_per_rack=8,
        cluster_size=16,
        n_snapshots=8,
        gap_seconds=15.0,
        core_bandwidth=CORE,
        seed=0,
    )
    print(format_series("message (bytes)", "Norm(N_E)", msg.as_rows()))
    print()

    print("=== four-arm comparison in the simulator (Fig 13) =========")
    res = fig13_simulation.run(
        n_racks=8,
        servers_per_rack=8,
        cluster_size=16,
        background=BackgroundConfig(
            n_pairs=96, message_bytes=100 * MB, mean_wait_seconds=1.0
        ),
        n_snapshots=16,
        time_step=8,
        gap_seconds=15.0,
        repetitions=40,
        solver="ialm",
        core_bandwidth=CORE,
        seed=3,
    )
    print(f"measured Norm(N_E) = {res.norm_ne:.3f} (paper targets ~0.1)")
    print(
        format_table(
            ["strategy", "broadcast", "scatter", "mapping"],
            res.normalized_table(),
            title="Normalized to Baseline (lower is better)",
        )
    )
    print()
    print(
        "paper shape: Topology-aware ~ Baseline; RPCA 25-40% better than "
        "both; RPCA 10-15% better than Heuristics"
    )


if __name__ == "__main__":
    main()
