"""Fig 8 — RPCA improvement over Baseline vs cluster size and message size.

The paper runs 64 and 196 medium instances and observes a larger improvement
on the bigger cluster (its VMs span more racks, so link selection matters
more), and a larger improvement for bigger messages (maintenance overhead
amortizes). The driver sweeps (cluster size × message size) and reports the
broadcast improvement of RPCA over Baseline for each cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cloudsim.tracegen import TraceConfig, generate_trace
from ..core.options import SolveOptions
from ..utils.seeding import derive_seed
from .fig07_overall_ec2 import default_strategies
from .harness import ReplayContext, collective_comparison

__all__ = ["Fig08Cell", "Fig08Result", "run"]

MB = 1024 * 1024


@dataclass(frozen=True, slots=True)
class Fig08Cell:
    """One (cluster size, message size) measurement."""

    n_machines: int
    nbytes: float
    improvement_over_baseline: float
    cross_rack_fraction: float


@dataclass(frozen=True)
class Fig08Result:
    cells: tuple[Fig08Cell, ...]

    def improvement(self, n_machines: int, nbytes: float) -> float:
        for c in self.cells:
            if c.n_machines == n_machines and c.nbytes == nbytes:
                return c.improvement_over_baseline
        raise KeyError((n_machines, nbytes))

    def as_rows(self) -> list[tuple[int, float, float]]:
        return [
            (c.n_machines, c.nbytes / MB, c.improvement_over_baseline)
            for c in self.cells
        ]


def run(
    *,
    cluster_sizes: tuple[int, ...] = (64, 196),
    message_sizes: tuple[float, ...] = (1.0 * MB, 8.0 * MB),
    n_snapshots: int = 30,
    time_step: int = 10,
    repetitions: int = 60,
    solver: str = SolveOptions.solver,
    colocation: float = 0.98,
    servers_per_rack: int = 64,
    seed: int = 0,
) -> Fig08Result:
    """Sweep cluster and message sizes; one fresh trace per cluster size.

    *colocation* and *servers_per_rack* control how rack-local a small
    cluster ends up — the mechanism behind the paper's size effect ("when
    the virtual cluster is large, its virtual machines may be more likely
    to be located in different racks"): a 64-VM cluster that fits inside a
    rack sees mostly homogeneous same-rack links (little to exploit), while
    196 VMs necessarily mix rack tiers.
    """
    from ..cloudsim.placement import place_cluster

    cells: list[Fig08Cell] = []
    for n in cluster_sizes:
        cfg = TraceConfig(
            n_machines=n,
            n_snapshots=n_snapshots,
            colocation=colocation,
            servers_per_rack=servers_per_rack,
        )
        placement = place_cluster(
            n,
            colocation=colocation,
            servers_per_rack=servers_per_rack,
            seed=derive_seed(seed, "place", n),
        )
        trace = generate_trace(
            cfg, seed=derive_seed(seed, "trace", n), placement=placement
        )
        for nbytes in message_sizes:
            ctx = ReplayContext(trace=trace, time_step=time_step, nbytes=nbytes)
            strategies = default_strategies(solver=solver, time_step=time_step)
            result = collective_comparison(
                ctx,
                strategies,
                op="broadcast",
                nbytes=nbytes,
                repetitions=repetitions,
                seed=derive_seed(seed, "rep", n, int(nbytes)),
            )
            cells.append(
                Fig08Cell(
                    n_machines=n,
                    nbytes=nbytes,
                    improvement_over_baseline=result.improvement("RPCA", "Baseline"),
                    cross_rack_fraction=placement.cross_rack_fraction(),
                )
            )
    return Fig08Result(cells=tuple(cells))
