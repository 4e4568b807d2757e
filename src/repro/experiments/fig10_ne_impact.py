"""Fig 10 — impact of ``Norm(N_E)`` on optimization effectiveness.

The paper injects noise into the EC2 trace until the decomposition's
relative error norm reaches each predefined level, then measures the
*expected* improvement of RPCA over Baseline (Fig 10a, for broadcast,
scatter and topology mapping) and over Heuristics (Fig 10b, broadcast).
Shape to reproduce: improvement over Baseline decays as Norm(N_E) grows —
>40% below 0.1, <20% beyond 0.2 — while the RPCA-vs-Heuristics margin is
small on stable networks, peaks around 0.2, and both collapse when the
network is hopelessly dynamic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cloudsim.noise import inject_noise_to_target
from ..cloudsim.trace import CalibrationTrace
from ..core.options import SolveOptions
from ..mapping.taskgraph import random_task_graph
from ..utils.seeding import derive_seed, spawn_rng
from .fig07_overall_ec2 import default_strategies
from .harness import ReplayContext, collective_comparison, mapping_comparison

__all__ = ["NePoint", "Fig10Result", "run"]


@dataclass(frozen=True, slots=True)
class NePoint:
    """Improvements at one achieved Norm(N_E) level."""

    target_norm_ne: float
    achieved_norm_ne: float
    broadcast_vs_baseline: float
    scatter_vs_baseline: float
    mapping_vs_baseline: float
    broadcast_vs_heuristics: float


@dataclass(frozen=True)
class Fig10Result:
    points: tuple[NePoint, ...]

    def series_vs_baseline(self, app: str) -> list[tuple[float, float]]:
        attr = f"{app}_vs_baseline"
        return [(p.achieved_norm_ne, getattr(p, attr)) for p in self.points]

    def series_vs_heuristics(self) -> list[tuple[float, float]]:
        return [(p.achieved_norm_ne, p.broadcast_vs_heuristics) for p in self.points]

    def as_rows(self) -> list[tuple[float, float, float, float, float]]:
        return [
            (
                p.achieved_norm_ne,
                p.broadcast_vs_baseline,
                p.scatter_vs_baseline,
                p.mapping_vs_baseline,
                p.broadcast_vs_heuristics,
            )
            for p in self.points
        ]


def run(
    trace: CalibrationTrace,
    *,
    targets: tuple[float, ...] = (0.05, 0.1, 0.2, 0.3, 0.5),
    time_step: int = 10,
    nbytes: float = 8.0 * 1024 * 1024,
    repetitions: int = 60,
    solver: str = SolveOptions.solver,
    seed: int = 0,
) -> Fig10Result:
    """Sweep target Norm(N_E) levels by noise injection on one base trace."""
    points: list[NePoint] = []
    for target in targets:
        noised, achieved = inject_noise_to_target(
            trace, target, nbytes=nbytes, seed=derive_seed(seed, "noise", int(target * 1000))
        )
        ctx = ReplayContext(trace=noised, time_step=time_step, nbytes=nbytes)
        strategies = default_strategies(solver=solver, time_step=time_step)
        bcast = collective_comparison(
            ctx, strategies, op="broadcast", nbytes=nbytes,
            repetitions=repetitions, seed=derive_seed(seed, "b", int(target * 1000)),
        )
        scat = collective_comparison(
            ctx, strategies, op="scatter", nbytes=nbytes / noised.n_machines,
            repetitions=repetitions, seed=derive_seed(seed, "s", int(target * 1000)),
        )
        rng = spawn_rng(derive_seed(seed, "g", int(target * 1000)))
        graphs = [
            random_task_graph(noised.n_machines, seed=rng)
            for _ in range(max(10, repetitions // 4))
        ]
        mapping = mapping_comparison(
            ctx, strategies, graphs, seed=derive_seed(seed, "m", int(target * 1000))
        )
        points.append(
            NePoint(
                target_norm_ne=target,
                achieved_norm_ne=achieved,
                broadcast_vs_baseline=bcast.improvement("RPCA", "Baseline"),
                scatter_vs_baseline=scat.improvement("RPCA", "Baseline"),
                mapping_vs_baseline=mapping.improvement("RPCA", "Baseline"),
                broadcast_vs_heuristics=bcast.improvement("RPCA", "Heuristics"),
            )
        )
    return Fig10Result(points=tuple(points))
