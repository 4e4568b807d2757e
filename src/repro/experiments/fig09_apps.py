"""Fig 9 — real-world applications: CG and N-body breakdowns.

* Fig 9(a): CG with vector size swept 1000→1024000. Paper shape: the run is
  communication-bound (>90% comm in the baseline); at small sizes the
  network-aware arms *lose* (calibration + RPCA overhead outweighs the
  gain); as size grows, iterations grow and the gain compensates — ~31%
  total-time improvement over Baseline, ~14% over Heuristics at the top.
* Fig 9(b): N-body with #Step swept 10→2560 at 1 MB messages.
* Fig 9(c): N-body with message size swept 1 KB→1 MB at 2560 steps.
  Overheads become insignificant as steps/messages grow; ~25% improvement
  over Baseline, ~10% over Heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps.breakdown import AppRunner, TimeBreakdown
from ..apps.cg import CGConfig, cg_profile
from ..apps.nbody import NBodyConfig, nbody_profile
from ..calibration.overhead import calibration_overhead_seconds
from ..cloudsim.trace import CalibrationTrace
from ..core.options import SolveOptions
from ..strategies.base import Strategy
from ..utils.seeding import derive_seed
from .fig07_overall_ec2 import default_strategies
from .harness import ReplayContext

__all__ = ["AppPoint", "Fig09Result", "run_cg", "run_nbody_steps", "run_nbody_msgsize"]

KB = 1024
MB = 1024 * 1024


def rpca_analysis_seconds(n_machines: int) -> float:
    """Seconds charged for one RPCA solve.

    The solve cost is dominated by SVDs on the time_step × N² TP-matrix, so
    it scales with N²; anchored to the paper's report of just under one
    minute at 196 instances.
    """
    return 55.0 * (n_machines / 196.0) ** 2


@dataclass(frozen=True, slots=True)
class AppPoint:
    """One x-axis point for one strategy."""

    x: float
    strategy: str
    breakdown: TimeBreakdown


@dataclass(frozen=True)
class Fig09Result:
    """Sweep results for one app/axis, keyed by (x, strategy)."""

    points: tuple[AppPoint, ...]
    x_name: str

    def total(self, x: float, strategy: str) -> float:
        for p in self.points:
            if p.x == x and p.strategy == strategy:
                return p.breakdown.total
        raise KeyError((x, strategy))

    def improvement(self, x: float, of: str, over: str) -> float:
        return 1.0 - self.total(x, of) / self.total(x, over)

    def strategies(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for p in self.points:
            seen.setdefault(p.strategy, None)
        return tuple(seen)

    def xs(self) -> tuple[float, ...]:
        seen: dict[float, None] = {}
        for p in self.points:
            seen.setdefault(p.x, None)
        return tuple(seen)

    def as_rows(self) -> list[tuple[float, str, float, float, float, float]]:
        return [
            (
                p.x,
                p.strategy,
                p.breakdown.computation,
                p.breakdown.communication,
                p.breakdown.overhead,
                p.breakdown.total,
            )
            for p in self.points
        ]


def _run_profiles(
    trace: CalibrationTrace,
    strategies: list[Strategy],
    steps: list,
    *,
    time_step: int,
    nbytes: float,
) -> dict[str, TimeBreakdown]:
    ctx = ReplayContext(trace=trace, time_step=time_step, nbytes=nbytes)
    ctx.fit(strategies)
    cal_cost = calibration_overhead_seconds(trace.n_machines, time_step)
    out: dict[str, TimeBreakdown] = {}
    for s in strategies:
        runner = AppRunner(
            trace=trace,
            strategy=s,
            calibration_overhead=cal_cost,
            analysis_overhead=(
                rpca_analysis_seconds(trace.n_machines) if "RPCA" in s.name else 0.0
            ),
        )
        out[s.name] = runner.run(steps, start_snapshot=time_step)
    return out


def run_cg(
    trace: CalibrationTrace,
    *,
    vector_sizes: tuple[int, ...] = (1000, 8000, 64000, 256000, 1024000),
    time_step: int = 10,
    solver: str = SolveOptions.solver,
    seed: int = 0,
) -> Fig09Result:
    """Fig 9(a): CG total-time breakdown across vector sizes."""
    points: list[AppPoint] = []
    n = trace.n_machines
    for vs in vector_sizes:
        cfg = CGConfig(vector_size=vs)
        steps, _iters = cg_profile(cfg, n, seed=derive_seed(seed, "cg", vs))
        strategies = default_strategies(solver=solver, time_step=time_step)
        breakdowns = _run_profiles(
            trace, strategies, steps, time_step=time_step, nbytes=cfg.vector_bytes
        )
        for name, bd in breakdowns.items():
            points.append(AppPoint(x=float(vs), strategy=name, breakdown=bd))
    return Fig09Result(points=tuple(points), x_name="vector_size")


def run_nbody_steps(
    trace: CalibrationTrace,
    *,
    step_counts: tuple[int, ...] = (10, 40, 160, 640, 2560),
    message_bytes: float = 1.0 * MB,
    time_step: int = 10,
    solver: str = SolveOptions.solver,
) -> Fig09Result:
    """Fig 9(b): N-body total time across #Step at fixed message size."""
    points: list[AppPoint] = []
    n = trace.n_machines
    for n_steps in step_counts:
        cfg = NBodyConfig(n_steps=n_steps, message_bytes=message_bytes)
        steps = nbody_profile(cfg, n)
        strategies = default_strategies(solver=solver, time_step=time_step)
        breakdowns = _run_profiles(
            trace, strategies, steps, time_step=time_step, nbytes=message_bytes
        )
        for name, bd in breakdowns.items():
            points.append(AppPoint(x=float(n_steps), strategy=name, breakdown=bd))
    return Fig09Result(points=tuple(points), x_name="n_steps")


def run_nbody_msgsize(
    trace: CalibrationTrace,
    *,
    message_sizes: tuple[float, ...] = (1 * KB, 8 * KB, 64 * KB, 256 * KB, 1 * MB),
    n_steps: int = 2560,
    time_step: int = 10,
    solver: str = SolveOptions.solver,
) -> Fig09Result:
    """Fig 9(c): N-body total time across message sizes at fixed #Step."""
    points: list[AppPoint] = []
    n = trace.n_machines
    for msg in message_sizes:
        cfg = NBodyConfig(n_steps=n_steps, message_bytes=msg)
        steps = nbody_profile(cfg, n)
        strategies = default_strategies(solver=solver, time_step=time_step)
        breakdowns = _run_profiles(
            trace, strategies, steps, time_step=time_step, nbytes=msg
        )
        for name, bd in breakdowns.items():
            points.append(AppPoint(x=float(msg), strategy=name, breakdown=bd))
    return Fig09Result(points=tuple(points), x_name="message_bytes")
