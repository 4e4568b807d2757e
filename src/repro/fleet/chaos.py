"""Worker-kill chaos harness for the self-healing fleet scheduler.

The acceptance test for fleet supervision is behavioral, mirroring the
session-level harness in :mod:`repro.persistence.chaos`: SIGKILL live
worker processes while a fleet run is in flight and require that

1. the run still completes (no hang, no abort),
2. ``fleet.worker.restarts >= 1`` — the scheduler actually noticed and
   replaced the corpse rather than getting lucky, and
3. every cluster's constant component ``P_D`` is **bit-identical** to an
   uninterrupted serial run of the same fleet — deterministic replay of the
   requeued task means a kill must be invisible in the results.

Workers are found by process name (the scheduler names them
``repro-fleet-worker-N``), so the killer needs no scheduler internals: it
is an outside attacker, the same way the CI chaos job would be.

A second scenario exercises ``on_error="degrade"``: one cluster whose task
raises on every attempt must end up quarantined in the report while every
healthy cluster still reports ``ok`` with bit-identical results.

Run it directly for the CI fleet-chaos job::

    python -m repro.fleet.chaos --mode both --seed 1 --kills 1
"""

from __future__ import annotations

import argparse
import json
import multiprocessing as mp
import os
import random
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..cloudsim.tracegen import TraceConfig, generate_trace
from .config import ClusterSpec, FleetConfig
from .scheduler import FleetScheduler

__all__ = [
    "FleetChaosResult",
    "WorkerKiller",
    "build_fleet",
    "run_chaos",
    "run_degraded",
    "main",
]

_WORKER_PREFIX = "repro-fleet-worker-"


@dataclass(frozen=True)
class FleetChaosResult:
    """Outcome of one chaos scenario.

    ``parity`` is the headline: every cluster the parallel run reports
    ``ok`` matches the serial reference bit for bit (``max_abs_diff`` is
    0.0 and the byte patterns are equal). ``passed`` folds in the
    scenario's other obligations (restarts observed for kill scenarios,
    quarantine observed for the degrade scenario).
    """

    scenario: str
    passed: bool
    parity: bool
    kills: int
    restarts: int
    max_abs_diff: float
    degraded: bool
    statuses: dict[str, str] = field(default_factory=dict)
    health: dict[str, int] = field(default_factory=dict)

    def summary(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "passed": self.passed,
            "parity": self.parity,
            "kills": self.kills,
            "restarts": self.restarts,
            "max_abs_diff": self.max_abs_diff,
            "degraded": self.degraded,
            "statuses": dict(self.statuses),
            "health": dict(self.health),
        }


class WorkerKiller:
    """Background thread that SIGKILLs fleet workers as they appear.

    Use as a context manager around a scheduler run. The thread polls
    :func:`multiprocessing.active_children` for live processes named
    ``repro-fleet-worker-*`` and SIGKILLs up to ``kills`` distinct pids,
    choosing victims with a seeded RNG so a failing CI run is replayable.
    """

    def __init__(self, *, kills: int = 1, seed: int = 0, poll_s: float = 0.005) -> None:
        self.kills = int(kills)
        self.seed = int(seed)
        self.poll_s = float(poll_s)
        self.killed: list[int] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="fleet-chaos-killer", daemon=True
        )

    def __enter__(self) -> "WorkerKiller":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _run(self) -> None:
        rng = random.Random(self.seed)
        while not self._stop.is_set() and len(self.killed) < self.kills:
            victims = [
                proc
                for proc in mp.active_children()
                if (proc.name or "").startswith(_WORKER_PREFIX)
                and proc.pid is not None
                and proc.pid not in self.killed
                and proc.is_alive()
            ]
            if not victims:
                time.sleep(self.poll_s)
                continue
            victim = rng.choice(victims)
            try:
                os.kill(victim.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                continue
            self.killed.append(victim.pid)


def build_fleet(
    n_clusters: int,
    *,
    seed: int = 0,
    n_machines: int = 6,
    n_snapshots: int = 16,
) -> list[ClusterSpec]:
    """A deterministic synthetic fleet: one seeded trace per cluster."""
    return [
        ClusterSpec(
            name=f"c{i:02d}",
            trace=generate_trace(
                TraceConfig(n_machines=n_machines, n_snapshots=n_snapshots),
                seed=seed * 1000 + i,
            ),
        )
        for i in range(n_clusters)
    ]


def _row_parity(
    reference: dict[str, np.ndarray], survived: dict[str, np.ndarray]
) -> tuple[bool, float]:
    """Bit-identity across per-cluster constant rows, plus the worst |diff|."""
    parity = True
    max_diff = 0.0
    for name, ref_row in reference.items():
        row = survived.get(name)
        if row is None or row.shape != ref_row.shape:
            return False, float("inf")
        if row.tobytes() != ref_row.tobytes():
            parity = False
            if row.size:
                max_diff = max(max_diff, float(np.max(np.abs(row - ref_row))))
    return parity, max_diff


def run_chaos(
    mode: str,
    *,
    seed: int = 0,
    kills: int = 1,
    n_workers: int = 4,
) -> FleetChaosResult:
    """SIGKILL ``kills`` workers mid-``mode`` and assert survival + parity.

    ``mode`` is ``"run"`` (session fleet) or ``"sweep"`` (trailing-window
    solves). The serial reference runs first — same fleet, same config —
    then the parallel run executes under the killer thread.
    """
    if mode == "run":
        clusters = build_fleet(8, seed=seed)
        config = FleetConfig(
            n_workers=n_workers,
            operations=60,
            batch_size=4,
            window=6,
            max_worker_restarts=kills + 2,
        )
        serial = FleetScheduler(clusters, config).run_serial()
        with WorkerKiller(kills=kills, seed=seed) as killer:
            report = FleetScheduler(clusters, config).run()
    elif mode == "sweep":
        clusters = build_fleet(48, seed=seed, n_machines=12, n_snapshots=40)
        config = FleetConfig(
            n_workers=n_workers,
            window=16,
            batch_size=4,
            max_worker_restarts=kills + 2,
        )
        serial = FleetScheduler(clusters, config).run_sweep_serial()
        with WorkerKiller(kills=kills, seed=seed) as killer:
            report = FleetScheduler(clusters, config).run_sweep()
    else:
        raise ValueError(f"mode must be 'run' or 'sweep', got {mode!r}")

    parity, max_diff = _row_parity(serial.constant_rows(), report.constant_rows())
    restarts = report.health()["worker_restarts"]
    passed = (
        parity
        and not report.degraded
        and len(killer.killed) >= 1
        and restarts >= 1
    )
    return FleetChaosResult(
        scenario=f"kill-{mode}",
        passed=passed,
        parity=parity,
        kills=len(killer.killed),
        restarts=restarts,
        max_abs_diff=max_diff,
        degraded=report.degraded,
        statuses=report.statuses(),
        health=report.health(),
    )


def run_degraded(*, seed: int = 0, n_workers: int = 2) -> FleetChaosResult:
    """One always-failing cluster under ``on_error="degrade"``.

    The sick cluster's trace is shorter than the calibration window, so
    every attempt raises inside the worker; after the retry budget it must
    be quarantined while every healthy cluster reports ``ok`` with results
    bit-identical to the (equally degraded) serial reference.
    """
    clusters = build_fleet(5, seed=seed)
    sick_trace = generate_trace(
        TraceConfig(n_machines=6, n_snapshots=3), seed=seed + 99
    )
    clusters.append(ClusterSpec(name="sick", trace=sick_trace))
    config = FleetConfig(
        n_workers=n_workers,
        operations=24,
        batch_size=4,
        window=6,
        on_error="degrade",
        max_task_retries=1,
        retry_backoff_s=0.01,
    )
    serial = FleetScheduler(clusters, config).run_serial()
    report = FleetScheduler(clusters, config).run()

    ok_rows_ref = {
        name: rep.constant_row
        for name, rep in serial.clusters.items()
        if rep.ok
    }
    ok_rows = {name: rep.constant_row for name, rep in report.clusters.items()}
    parity, max_diff = _row_parity(ok_rows_ref, ok_rows)
    statuses = report.statuses()
    passed = (
        parity
        and report.degraded
        and statuses.get("sick") == "quarantined"
        and all(s == "ok" for name, s in statuses.items() if name != "sick")
        and report.health()["clusters_quarantined"] >= 1
        and report.clusters["sick"].error is not None
    )
    return FleetChaosResult(
        scenario="degrade",
        passed=passed,
        parity=parity,
        kills=0,
        restarts=report.health()["worker_restarts"],
        max_abs_diff=max_diff,
        degraded=report.degraded,
        statuses=statuses,
        health=report.health(),
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CI entry point: run the requested scenarios, exit 0 when all pass."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet.chaos",
        description="SIGKILL fleet workers mid-run and assert report parity",
    )
    parser.add_argument("--mode", default="both", choices=["run", "sweep", "both"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kills", type=int, default=1,
                        help="distinct workers to SIGKILL per scenario")
    parser.add_argument("--n-workers", type=int, default=4)
    parser.add_argument("--skip-degrade", action="store_true",
                        help="only run the worker-kill scenarios")
    parser.add_argument("--report", default=None,
                        help="write a JSON report here (CI artifact)")
    args = parser.parse_args(argv)

    modes = ["run", "sweep"] if args.mode == "both" else [args.mode]
    results = [
        run_chaos(mode, seed=args.seed, kills=args.kills, n_workers=args.n_workers)
        for mode in modes
    ]
    if not args.skip_degrade:
        results.append(run_degraded(seed=args.seed))

    for res in results:
        print(
            f"fleet-chaos[{res.scenario}]: passed={res.passed} "
            f"parity={res.parity} kills={res.kills} restarts={res.restarts} "
            f"max |dP_D|={res.max_abs_diff:.3e} degraded={res.degraded}"
        )
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump([res.summary() for res in results], fh, indent=2)
    return 0 if all(res.passed for res in results) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
