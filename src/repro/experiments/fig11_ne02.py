"""Fig 11 — detailed study at ``Norm(N_E) = 0.2``.

The same three-application comparison as Fig 7, but on the trace noised to a
more dynamic regime than real EC2. Paper shape: RPCA still wins — 20–28%
over Baseline and 12–20% over Heuristics — but by less than at 0.1, and the
broadcast CDF separates the arms the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cloudsim.noise import inject_noise_to_target
from ..cloudsim.trace import CalibrationTrace
from ..core.options import SolveOptions
from ..utils.seeding import derive_seed
from .fig07_overall_ec2 import Fig07Result
from .fig07_overall_ec2 import run as run_fig07

__all__ = ["Fig11Result", "run"]


@dataclass(frozen=True)
class Fig11Result:
    """Fig 7-style comparison at the noised Norm(N_E) level."""

    comparison: Fig07Result
    achieved_norm_ne: float


def run(
    trace: CalibrationTrace,
    *,
    target_norm_ne: float = 0.2,
    time_step: int = 10,
    nbytes: float = 8.0 * 1024 * 1024,
    repetitions: int = 100,
    solver: str = SolveOptions.solver,
    seed: int = 0,
) -> Fig11Result:
    """Noise the trace to the target level and re-run the Fig 7 comparison."""
    noised, achieved = inject_noise_to_target(
        trace, target_norm_ne, nbytes=nbytes, seed=derive_seed(seed, "noise")
    )
    comparison = run_fig07(
        noised,
        time_step=time_step,
        nbytes=nbytes,
        repetitions=repetitions,
        solver=solver,
        seed=derive_seed(seed, "cmp"),
    )
    return Fig11Result(comparison=comparison, achieved_norm_ne=achieved)
