"""The paper's full experimental campaign protocol (Sec V-A).

"For each virtual cluster size, the real experiment takes around one week,
with one experimental run every 30 minutes. In each run, we run the
following experiments one by one: calibration, MPI and topology mapping
applications. For each application, we run the compared algorithms one by
one."

:func:`run_campaign` replays exactly that protocol over a synthetic week:
every 30-minute slot runs broadcast, scatter and topology mapping under
each arm on the live snapshot; the RPCA arm runs inside a
:class:`~repro.runtime.session.TraceSession` so Algorithm-1 maintenance
(threshold 100 %, time step 10) operates exactly as deployed, including
re-calibration charges. The result aggregates per-arm elapsed time,
overheads, and the week's dollar bill.
"""

from __future__ import annotations

from dataclasses import dataclass


from ..calibration.overhead import calibration_overhead_seconds
from ..cloudsim.trace import CalibrationTrace
from ..collectives.exec_model import collective_time
from ..collectives.operations import build_tree
from ..core.options import SolveOptions
from ..economics.pricing import InstancePricing, run_cost_usd
from ..errors import ValidationError
from ..mapping.evaluate import bandwidth_from_weights, mapping_total_time
from ..mapping.greedy import greedy_mapping
from ..mapping.ring import ring_mapping
from ..mapping.taskgraph import random_task_graph
from ..runtime.session import TraceSession
from ..strategies.heuristics import HeuristicStrategy
from ..utils.seeding import derive_seed, spawn_rng

__all__ = ["ArmSummary", "CampaignResult", "run_campaign"]

MB = 1024 * 1024


@dataclass(frozen=True, slots=True)
class ArmSummary:
    """One arm's accumulated week."""

    name: str
    communication_seconds: float
    overhead_seconds: float
    runs: int
    recalibrations: int
    cost_usd: float

    @property
    def total_seconds(self) -> float:
        return self.communication_seconds + self.overhead_seconds


@dataclass(frozen=True)
class CampaignResult:
    """Aggregate of the week-long protocol."""

    arms: tuple[ArmSummary, ...]
    norm_ne_series: tuple[float, ...]

    def arm(self, name: str) -> ArmSummary:
        for a in self.arms:
            if a.name == name:
                return a
        raise KeyError(name)

    def improvement(self, of: str, over: str) -> float:
        return 1.0 - self.arm(of).total_seconds / self.arm(over).total_seconds

    def as_rows(self) -> list[tuple[str, float, float, float, int, float]]:
        return [
            (a.name, a.communication_seconds, a.overhead_seconds,
             a.total_seconds, a.recalibrations, a.cost_usd)
            for a in self.arms
        ]


def run_campaign(
    trace: CalibrationTrace,
    *,
    time_step: int = 10,
    threshold: float = 1.0,
    consecutive: int = 2,
    nbytes: float = 8.0 * MB,
    solver: str = SolveOptions.solver,
    collectives_per_run: int = 100,
    pricing: InstancePricing | None = None,
    seed: int = 0,
) -> CampaignResult:
    """Replay the Sec V-A protocol over *trace* (one run per snapshot).

    Each post-calibration snapshot is one 30-minute experimental run:
    broadcast + scatter + one topology mapping, executed under Baseline,
    Heuristics (re-fit each run on the trailing window, i.e. the "direct
    use of recent measurements" it stands for) and RPCA (a live
    :class:`TraceSession` with Algorithm-1 maintenance).

    *collectives_per_run* sizes each 30-minute run: a real application
    executes hundreds of collectives per run, so its communication time is
    the single-operation time scaled by that factor (the maintenance loop
    still observes single operations; the deviation ratio is scale-free).
    """
    if trace.n_snapshots <= time_step + 1:
        raise ValidationError("trace too short for a campaign")
    if int(collectives_per_run) < 1:
        raise ValidationError("collectives_per_run must be >= 1")
    n = trace.n_machines
    rng = spawn_rng(derive_seed(seed, "campaign"))
    p = pricing if pricing is not None else InstancePricing()
    cal_cost = calibration_overhead_seconds(n, time_step)

    session = TraceSession(
        trace,
        nbytes=nbytes,
        time_step=time_step,
        threshold=threshold,
        consecutive=consecutive,  # single collectives spike; debounce them
        solver=solver,
        calibration_cost=cal_cost,
    )
    # Heuristics = "direct use of a few measurements": it fits once on the
    # same initial calibration RPCA consumed and has no maintenance rule of
    # its own (Algorithm 1 is precisely what it lacks).
    heuristic = HeuristicStrategy("mean")
    heuristic.fit(trace.tp_matrix(nbytes, start=0, count=time_step))
    h_weights = heuristic.weight_matrix()

    comm = {"Baseline": 0.0, "Heuristics": 0.0, "RPCA": 0.0}
    overhead = {"Baseline": 0.0, "Heuristics": cal_cost, "RPCA": 0.0}
    runs = 0
    norm_series: list[float] = []

    for k in range(time_step, trace.n_snapshots):
        root = int(rng.integers(n))
        live_a, live_b = trace.alpha[k], trace.beta[k]
        graph = random_task_graph(n, seed=derive_seed(seed, "graph", k))

        c = float(collectives_per_run)
        # Baseline: binomial trees + ring mapping, no estimates.
        tree = build_tree(n, root, algorithm="binomial")
        comm["Baseline"] += c * collective_time("broadcast", tree, live_a, live_b, nbytes)
        comm["Baseline"] += c * collective_time("scatter", tree, live_a, live_b, nbytes / n)
        comm["Baseline"] += mapping_total_time(
            graph, ring_mapping(n, n, offset=root), live_a, live_b
        )

        h_tree = build_tree(n, root, algorithm="fnf", weights=h_weights)
        comm["Heuristics"] += c * collective_time("broadcast", h_tree, live_a, live_b, nbytes)
        comm["Heuristics"] += c * collective_time("scatter", h_tree, live_a, live_b, nbytes / n)
        comm["Heuristics"] += mapping_total_time(
            graph,
            greedy_mapping(graph, bandwidth_from_weights(h_weights)),
            live_a,
            live_b,
        )

        # RPCA: the session prices ops itself at its own cursor; align it.
        session._cursor = k  # replay alignment: same live snapshot as others
        rec_b = session.broadcast(root=root)
        session._cursor = k
        rec_s = session.scatter(root=root, block_bytes=nbytes / n)
        session._cursor = k
        _, map_elapsed = session.map_tasks(graph)
        comm["RPCA"] += c * (rec_b.elapsed + rec_s.elapsed) + map_elapsed
        norm_series.append(session.norm_ne)
        runs += 1

    overhead["RPCA"] = session.stats.overhead_seconds
    arms = tuple(
        ArmSummary(
            name=name,
            communication_seconds=comm[name],
            overhead_seconds=overhead[name],
            runs=runs,
            recalibrations=session.stats.recalibrations if name == "RPCA" else 0,
            cost_usd=run_cost_usd(comm[name] + overhead[name], n, p),
        )
        for name in ("Baseline", "Heuristics", "RPCA")
    )
    return CampaignResult(arms=arms, norm_ne_series=tuple(norm_series))
