"""One-shot figure runner: regenerate every paper figure at a chosen scale.

Backs the ``repro figures`` CLI command. ``quick`` scale finishes in well
under a minute and shows every qualitative shape; ``paper`` scale matches
the benchmark suite's configurations (minutes). The netsim figures (12-13)
are the slow ones and are opt-in at quick scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..cloudsim.tracegen import TraceConfig, generate_trace
from ..core.options import SolveOptions
from ..netsim.background import BackgroundConfig
from ..netsim.topology import GBIT
from . import (
    fig04_overhead,
    fig05_time_step,
    fig06_threshold,
    fig07_overall_ec2,
    fig08_cluster_size,
    fig09_apps,
    fig10_ne_impact,
    fig11_ne02,
    fig12_interference,
    fig13_simulation,
)
from .report import format_series, format_table

__all__ = ["run_all_figures", "FigureReport"]

MB = 1024 * 1024


@dataclass(frozen=True, slots=True)
class FigureReport:
    """One regenerated figure: its id and rendered table."""

    figure: str
    text: str


def _scale_params(scale: str) -> dict:
    if scale == "quick":
        return dict(n_machines=16, n_snapshots=24, repetitions=24, time_step=8)
    if scale == "paper":
        return dict(n_machines=64, n_snapshots=30, repetitions=100, time_step=10)
    raise ValueError(f"scale must be 'quick' or 'paper', got {scale!r}")


def run_all_figures(
    *,
    scale: str = "quick",
    include_simulation: bool = False,
    seed: int = 2014,
    emit: Callable[[str], None] | None = None,
) -> list[FigureReport]:
    """Regenerate Figs 4-11 (and optionally 12-13) and return their tables.

    Parameters
    ----------
    scale:
        ``"quick"`` or ``"paper"``.
    include_simulation:
        Also run the netsim figures (slower).
    seed:
        Master seed.
    emit:
        Optional sink called with each table as it is produced (the CLI
        passes ``print`` for streaming output).
    """
    p = _scale_params(scale)
    reports: list[FigureReport] = []

    def add(figure: str, text: str) -> None:
        reports.append(FigureReport(figure=figure, text=text))
        if emit is not None:
            emit(text + "\n")

    trace = generate_trace(
        TraceConfig(n_machines=p["n_machines"], n_snapshots=p["n_snapshots"]),
        seed=seed,
    )

    r4 = fig04_overhead.run()
    add("fig04", format_table(
        ["instances", "seconds", "minutes", "rounds"], r4.as_rows(),
        title="Fig 4: calibration overhead (time step = 10)",
    ))

    r5 = fig05_time_step.run(
        trace, time_steps=(2, 4, 6, 8, 10, 15, 20), solver="row_constant"
    )
    add("fig05", format_series(
        "time step", "relative difference", r5.as_rows(),
        title=f"Fig 5 (selected step: {r5.selected})",
    ))

    r6 = fig06_threshold.run(
        trace,
        thresholds=(0.2, 1.0, 5.0),
        time_step=p["time_step"],
        calibration_cost=45.0,
        collectives_per_operation=40,
        seed=seed,
    )
    add("fig06", format_table(
        ["threshold", "avg total (s)", "avg comm (s)", "avg overhead (s)", "recals"],
        r6.as_rows(),
        title="Fig 6: maintenance threshold",
    ))

    r7 = fig07_overall_ec2.run(
        trace,
        time_step=p["time_step"],
        repetitions=p["repetitions"],
        solver="row_constant" if scale == "quick" else SolveOptions.solver,
        seed=seed,
    )
    add("fig07", format_table(
        ["strategy", "broadcast", "scatter", "mapping"],
        r7.normalized_table(),
        title=f"Fig 7: normalized means (Norm(N_E) = {r7.norm_ne:.3f})",
    ))

    r8 = fig08_cluster_size.run(
        cluster_sizes=(16, 48) if scale == "quick" else (64, 196),
        message_sizes=(8.0 * MB,),
        n_snapshots=p["n_snapshots"],
        time_step=p["time_step"],
        repetitions=p["repetitions"],
        solver="row_constant" if scale == "quick" else SolveOptions.solver,
        colocation=1.0,
        seed=seed,
    )
    add("fig08", format_table(
        ["instances", "message (MB)", "improvement"], r8.as_rows(),
        title="Fig 8: improvement vs cluster size",
    ))

    r9 = fig09_apps.run_cg(
        trace,
        vector_sizes=(8000, 256000),
        time_step=p["time_step"],
        solver="row_constant" if scale == "quick" else SolveOptions.solver,
        seed=seed,
    )
    add("fig09", format_table(
        ["vector size", "strategy", "comp", "comm", "overhead", "total"],
        r9.as_rows(),
        title="Fig 9a: CG breakdown",
    ))

    r10 = fig10_ne_impact.run(
        trace,
        targets=(0.2, 0.4) if scale == "quick" else (0.05, 0.1, 0.2, 0.3, 0.5),
        repetitions=p["repetitions"],
        solver="row_constant" if scale == "quick" else SolveOptions.solver,
        seed=seed,
    )
    add("fig10", format_table(
        ["Norm(N_E)", "bcast", "scatter", "mapping", "bcast vs Heur"],
        r10.as_rows(),
        title="Fig 10: improvement vs Norm(N_E)",
    ))

    r11 = fig11_ne02.run(
        trace,
        repetitions=p["repetitions"],
        solver="row_constant" if scale == "quick" else SolveOptions.solver,
        seed=seed,
    )
    add("fig11", format_table(
        ["strategy", "broadcast", "scatter", "mapping"],
        r11.comparison.normalized_table(),
        title=f"Fig 11: Norm(N_E) = {r11.achieved_norm_ne:.3f}",
    ))

    if include_simulation:
        geom = (
            dict(n_racks=4, servers_per_rack=8, cluster_size=10,
                 core_bandwidth=2.5 * GBIT, n_snapshots=6, gap_seconds=10.0)
            if scale == "quick"
            else dict(n_racks=16, servers_per_rack=16, cluster_size=24,
                      core_bandwidth=5.0 * GBIT, n_snapshots=8, gap_seconds=20.0)
        )
        r12 = fig12_interference.run_lambda_sweep(
            lambdas=(1.0, 10.0), n_pairs=24 if scale == "quick" else 96,
            seed=seed, **geom,
        )
        add("fig12", format_series(
            "lambda (s)", "Norm(N_E)", r12.as_rows(),
            title="Fig 12a: interference frequency vs Norm(N_E)",
        ))

        r13 = fig13_simulation.run(
            n_racks=geom["n_racks"],
            servers_per_rack=geom["servers_per_rack"],
            cluster_size=geom["cluster_size"] + 2,
            background=BackgroundConfig(
                n_pairs=64 if scale == "quick" else 160,
                message_bytes=100 * MB,
                mean_wait_seconds=1.0,
            ),
            n_snapshots=10 if scale == "quick" else 20,
            time_step=5 if scale == "quick" else 10,
            gap_seconds=geom["gap_seconds"],
            repetitions=p["repetitions"],
            solver="row_constant" if scale == "quick" else SolveOptions.solver,
            core_bandwidth=geom["core_bandwidth"],
            seed=seed,
        )
        add("fig13", format_table(
            ["strategy", "broadcast", "scatter", "mapping"],
            r13.normalized_table(),
            title=f"Fig 13: simulator, Norm(N_E) = {r13.norm_ne:.3f}",
        ))

    return reports
