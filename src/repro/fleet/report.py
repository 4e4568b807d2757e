"""Result objects returned by a fleet run.

Per-cluster health vocabulary (``status``):

* ``"ok"`` — the cluster completed its full operation budget (or its sweep
  window solved).
* ``"quarantined"`` — the cluster's task kept raising; under
  ``on_error="degrade"`` it was removed from the rotation after exhausting
  its retry budget, and ``error`` carries the last worker traceback.
* ``"failed"`` — the cluster was given up on for infrastructure reasons
  (every attempt blew its ``task_timeout_s`` deadline) rather than because
  its own task raised; ``error`` says why.

A report whose clusters are not all ``"ok"`` is *degraded*
(:attr:`FleetReport.degraded`): the healthy clusters' results are complete
and bit-identical to a failure-free run, the sick ones are carried with
their status and traceback instead of poisoning the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "CLUSTER_STATUSES",
    "ClusterReport",
    "FleetReport",
    "FleetSweepReport",
    "SweepClusterResult",
]

#: Valid per-cluster health states in fleet reports.
CLUSTER_STATUSES = ("ok", "failed", "quarantined")

#: Scheduler health counters surfaced in every report summary. The
#: ``regime.*`` counters are session-side (merged from worker capsules),
#: so fleet health covers both planes: infrastructure self-healing and
#: network-regime churn.
_HEALTH_COUNTERS = {
    "worker_restarts": "fleet.worker.restarts",
    "task_retries": "fleet.task.retries",
    "task_timeouts": "fleet.task.timeouts",
    "clusters_quarantined": "fleet.cluster.quarantined",
    "regime_shifts": "regime.shift",
    "regime_spikes": "regime.spike",
    "forced_recalibrations": "regime.forced_recalibrations",
    "stream_updates": "kernel.stream.updates",
    "stream_fallbacks": "kernel.stream.fallbacks",
}


def _round_or_none(value: float, digits: int = 6) -> float | None:
    """Round for a summary; non-finite values become JSON-safe ``None``."""
    value = float(value)
    return round(value, digits) if math.isfinite(value) else None


def _health_summary(instrumentation: dict[str, Any]) -> dict[str, int]:
    counters = instrumentation.get("counters", {}) if instrumentation else {}
    return {key: int(counters.get(name, 0)) for key, name in _HEALTH_COUNTERS.items()}


@dataclass(frozen=True)
class ClusterReport:
    """Final state of one cluster after its operation budget ran out.

    ``constant_row`` is the flattened constant component ``P_D`` of the
    cluster's latest decomposition — the fleet's headline per-cluster
    output, and the quantity the throughput benchmark checks for
    bit-identity against a serial run. For a quarantined cluster that never
    completed a batch it is empty and ``verdict`` is ``"unavailable"``.
    """

    name: str
    operations: int
    constant_row: np.ndarray
    norm_ne: float
    verdict: str
    recalibrations: int
    worker_batches: int
    status: str = "ok"
    error: str | None = None
    retries: int = 0
    regime_shifts: int = 0
    regime_spikes: int = 0
    stream_updates: int = 0
    stream_fallbacks: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def summary(self) -> dict[str, Any]:
        out = {
            "name": self.name,
            "operations": self.operations,
            "norm_ne": _round_or_none(self.norm_ne),
            "verdict": self.verdict,
            "recalibrations": self.recalibrations,
            "worker_batches": self.worker_batches,
            "status": self.status,
            "retries": self.retries,
            "regime_shifts": self.regime_shifts,
            "regime_spikes": self.regime_spikes,
            "stream_updates": self.stream_updates,
            "stream_fallbacks": self.stream_fallbacks,
        }
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass(frozen=True)
class FleetReport:
    """Aggregate outcome of one :meth:`FleetScheduler.run` call."""

    clusters: dict[str, ClusterReport]
    n_workers: int
    elapsed_s: float
    total_operations: int
    total_batches: int
    instrumentation: dict[str, Any] = field(default_factory=dict)

    @property
    def throughput_ops_s(self) -> float:
        """Fleet-wide completed operations per wall-clock second."""
        return self.total_operations / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def degraded(self) -> bool:
        """True when any cluster did not finish healthy (``status != "ok"``)."""
        return any(rep.status != "ok" for rep in self.clusters.values())

    def statuses(self) -> dict[str, str]:
        return {name: rep.status for name, rep in self.clusters.items()}

    def health(self) -> dict[str, int]:
        """Scheduler self-healing counters (restarts, retries, timeouts)."""
        return _health_summary(self.instrumentation)

    def constant_rows(self) -> dict[str, np.ndarray]:
        return {name: rep.constant_row for name, rep in self.clusters.items()}

    def summary(self) -> dict[str, Any]:
        return {
            "n_workers": self.n_workers,
            "elapsed_s": round(self.elapsed_s, 3),
            "total_operations": self.total_operations,
            "total_batches": self.total_batches,
            "throughput_ops_s": round(self.throughput_ops_s, 2),
            "degraded": self.degraded,
            "health": self.health(),
            "clusters": [
                self.clusters[name].summary() for name in sorted(self.clusters)
            ],
        }


@dataclass(frozen=True)
class SweepClusterResult:
    """One cluster's trailing-window decomposition from a fleet sweep.

    ``constant_row`` is the flattened constant component ``P_D`` — the
    quantity the sweep benchmark checks for bit-identity between the
    parallel run and the serial reference. For a quarantined
    cluster it is empty and ``verdict`` is ``"unavailable"``.
    """

    name: str
    constant_row: np.ndarray
    norm_ne: float
    verdict: str
    rank: int
    iterations: int
    converged: bool
    residual: float
    status: str = "ok"
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def summary(self) -> dict[str, Any]:
        out = {
            "name": self.name,
            "norm_ne": _round_or_none(self.norm_ne),
            "verdict": self.verdict,
            "rank": int(self.rank),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "status": self.status,
        }
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass(frozen=True)
class FleetSweepReport:
    """Aggregate outcome of one :meth:`FleetScheduler.run_sweep` call."""

    clusters: dict[str, SweepClusterResult]
    n_workers: int
    elapsed_s: float
    instrumentation: dict[str, Any] = field(default_factory=dict)

    @property
    def throughput_solves_s(self) -> float:
        """Cluster windows decomposed per wall-clock second."""
        return len(self.clusters) / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def degraded(self) -> bool:
        """True when any cluster's window did not solve (``status != "ok"``)."""
        return any(res.status != "ok" for res in self.clusters.values())

    def statuses(self) -> dict[str, str]:
        return {name: res.status for name, res in self.clusters.items()}

    def health(self) -> dict[str, int]:
        """Scheduler self-healing counters (restarts, retries, timeouts)."""
        return _health_summary(self.instrumentation)

    def constant_rows(self) -> dict[str, np.ndarray]:
        return {name: res.constant_row for name, res in self.clusters.items()}

    def summary(self) -> dict[str, Any]:
        return {
            "n_workers": self.n_workers,
            "elapsed_s": round(self.elapsed_s, 3),
            "throughput_solves_s": round(self.throughput_solves_s, 2),
            "degraded": self.degraded,
            "health": self.health(),
            "clusters": [
                self.clusters[name].summary() for name in sorted(self.clusters)
            ],
        }
