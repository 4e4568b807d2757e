"""Fig 13 — full comparison on the simulated large-scale cluster.

The only experiment where the Topology-aware arm can exist (topology is
known to the simulator, hidden on EC2). Background traffic is tuned so the
cluster's ``Norm(N_E)`` ≈ 0.1, matching EC2. Paper shape: Topology-aware ≈
Baseline (static topology knowledge is useless under dynamics), RPCA
25–40% better than both, and 10–15% better than Heuristics; the broadcast
CDF separates the arms the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cloudsim.bands import BandTiers
from ..core.options import SolveOptions
from ..mapping.taskgraph import random_task_graph
from ..netsim.background import BackgroundConfig
from ..strategies.baseline import BaselineStrategy
from ..strategies.heuristics import HeuristicStrategy
from ..strategies.rpca import RPCAStrategy
from ..strategies.topology_aware import TopologyAwareStrategy
from ..utils.seeding import derive_seed, spawn_rng
from .harness import ComparisonResult, ReplayContext, collective_comparison, mapping_comparison
from .netsim_support import build_scenario, calibrate_netsim_trace

__all__ = ["Fig13Result", "run"]

MB = 1024 * 1024


@dataclass(frozen=True)
class Fig13Result:
    """Per-application comparisons including the Topology-aware arm."""

    broadcast: ComparisonResult
    scatter: ComparisonResult
    mapping: ComparisonResult
    norm_ne: float

    def normalized_table(self) -> list[tuple[str, float, float, float]]:
        rows = []
        for name in self.broadcast.times:
            rows.append(
                (
                    name,
                    self.broadcast.normalized_means()[name],
                    self.scatter.normalized_means()[name],
                    self.mapping.normalized_means()[name],
                )
            )
        return rows

    def broadcast_cdf(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        return self.broadcast.cdf(name)


def run(
    *,
    n_racks: int = 32,
    servers_per_rack: int = 32,
    cluster_size: int = 32,
    background: BackgroundConfig | None = None,
    n_snapshots: int = 20,
    time_step: int = 10,
    gap_seconds: float = 30.0,
    nbytes: float = 8.0 * MB,
    repetitions: int = 60,
    solver: str = SolveOptions.solver,
    core_bandwidth: float | None = None,
    seed: int = 0,
) -> Fig13Result:
    """Calibrate a netsim trace and compare all four arms on it.

    The default background (64 pairs, 100 MB, λ=5 s on the full-size
    datacenter) lands Norm(N_E) near 0.1; callers shrinking the datacenter
    should re-tune it and preserve the 3.2:1 uplink oversubscription via
    *core_bandwidth* (see :func:`~repro.experiments.netsim_support.build_scenario`).
    """
    scenario = build_scenario(
        n_racks=n_racks,
        servers_per_rack=servers_per_rack,
        cluster_size=cluster_size,
        background=background,
        core_bandwidth=core_bandwidth,
        seed=seed,
    )
    trace = calibrate_netsim_trace(
        scenario, n_snapshots=n_snapshots, gap_seconds=gap_seconds, probe_bytes=nbytes
    )
    ctx = ReplayContext(trace=trace, time_step=time_step, nbytes=nbytes)

    topo = scenario.topology
    # Nominal tiers the topology-aware arm believes: access-limited 1 Gb/s
    # inside a rack; cross-rack slightly worse to reflect the oversubscribed
    # aggregation layer it knows about (but whose load it cannot see).
    tiers = BandTiers(
        same_rack_bandwidth=topo.rack_bandwidth,
        cross_rack_bandwidth=topo.rack_bandwidth * 0.8,
        same_rack_latency=2 * topo.hop_latency,
        cross_rack_latency=4 * topo.hop_latency,
        jitter_sigma=0.0,
    )
    strategies = [
        BaselineStrategy(),
        TopologyAwareStrategy(scenario.placement(), nbytes, tiers),
        HeuristicStrategy("mean"),
        RPCAStrategy(solver, time_step=time_step),
    ]

    bcast = collective_comparison(
        ctx, strategies, op="broadcast", nbytes=nbytes,
        repetitions=repetitions, seed=derive_seed(seed, "b"),
    )
    scat = collective_comparison(
        ctx, strategies, op="scatter", nbytes=nbytes / cluster_size,
        repetitions=repetitions, seed=derive_seed(seed, "s"),
    )
    rng = spawn_rng(derive_seed(seed, "g"))
    graphs = [
        random_task_graph(cluster_size, seed=rng)
        for _ in range(max(10, repetitions // 4))
    ]
    mapping = mapping_comparison(ctx, strategies, graphs, seed=derive_seed(seed, "m"))

    rpca = next(s for s in strategies if isinstance(s, RPCAStrategy))
    return Fig13Result(
        broadcast=bcast, scatter=scat, mapping=mapping, norm_ne=rpca.norm_ne
    )
