"""Fig 7 — overall comparison on the EC2-like trace.

Broadcast, scatter and topology mapping on the default cluster, Baseline vs
Heuristics vs RPCA, means over 100+ repetitions normalized to Baseline, plus
the broadcast CDF. Paper shape: Heuristics and RPCA beat Baseline by
32–40%; RPCA beats Heuristics by a further 8–10% at EC2's Norm(N_E) ≈ 0.1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cloudsim.trace import CalibrationTrace
from ..core.options import SolveOptions
from ..mapping.taskgraph import random_task_graph
from ..strategies.baseline import BaselineStrategy
from ..strategies.heuristics import HeuristicStrategy
from ..strategies.rpca import RPCAStrategy
from ..utils.seeding import derive_seed, spawn_rng
from .harness import ComparisonResult, ReplayContext, collective_comparison, mapping_comparison

__all__ = ["Fig07Result", "run", "default_strategies"]


def default_strategies(*, solver: str = SolveOptions.solver, time_step: int = 10) -> list:
    """The three EC2 arms (Topology-aware is netsim-only, as in the paper)."""
    return [
        BaselineStrategy(),
        HeuristicStrategy("mean"),
        RPCAStrategy(solver, time_step=time_step),
    ]


@dataclass(frozen=True)
class Fig07Result:
    """Per-application comparison results plus the broadcast CDF."""

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
    trace: CalibrationTrace,
    *,
    time_step: int = 10,
    nbytes: float = 8.0 * 1024 * 1024,
    repetitions: int = 100,
    n_tasks: int | None = None,
    solver: str = SolveOptions.solver,
    seed: int = 0,
) -> Fig07Result:
    """Run the three applications over one trace replay."""
    ctx = ReplayContext(trace=trace, time_step=time_step, nbytes=nbytes)
    strategies = default_strategies(solver=solver, time_step=time_step)

    bcast = collective_comparison(
        ctx, strategies, op="broadcast", nbytes=nbytes,
        repetitions=repetitions, seed=derive_seed(seed, "bcast"),
    )
    # Per the paper, scatter's 8 MB is the message size; each node's block.
    scat = collective_comparison(
        ctx, strategies, op="scatter", nbytes=nbytes / trace.n_machines,
        repetitions=repetitions, seed=derive_seed(seed, "scatter"),
    )
    rng = spawn_rng(derive_seed(seed, "graphs"))
    nt = n_tasks if n_tasks is not None else trace.n_machines
    graphs = [
        random_task_graph(nt, seed=rng)
        for _ in range(max(10, repetitions // 4))
    ]
    mapping = mapping_comparison(ctx, strategies, graphs, seed=derive_seed(seed, "map"))

    rpca = next(s for s in strategies if isinstance(s, RPCAStrategy))
    return Fig07Result(
        broadcast=bcast, scatter=scat, mapping=mapping, norm_ne=rpca.norm_ne
    )
