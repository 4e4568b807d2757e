"""The v1.1 public API facade.

Three verbs cover the package's common uses, each a thin layer over the
underlying machinery with one consistent configuration vocabulary:

* :func:`solve` — one-shot decomposition of a trace into constant + error
  components (:class:`~repro.core.decompose.Decomposition`).
* :func:`open_session` — an Algorithm-1
  :class:`~repro.runtime.session.TraceSession` over one cluster, in batch
  or streaming mode (``mode="streaming"`` folds each snapshot in O(row)
  with a certified batch fallback).
* :func:`run_fleet` — many clusters concurrently via
  :class:`~repro.fleet.FleetScheduler`.

Configuration is a frozen dataclass per verb (:class:`SolveConfig`,
:class:`SessionConfig`, :class:`~repro.fleet.FleetConfig`) sharing canonical
field names: ``window`` for the calibration window length, ``threshold``
for the maintenance threshold, ``n_workers`` for parallelism. The solve
knobs and their rules live in one place,
:class:`~repro.core.options.SolveOptions`: ``FleetConfig`` extends
``SessionConfig``, which extends ``SolveOptions``. Keyword overrides beat
the config object.

Removed legacy spellings (v1.1)
-------------------------------
The historical spellings accepted for one release in v1 — ``time_step``,
``nsnap``, ``n_snapshots`` (all meaning ``window``), ``thresh``
(``threshold``) and ``workers`` (``n_workers``) — are **gone**: passing one
raises ``TypeError`` naming the canonical field. Any other unknown keyword
also raises ``TypeError``, with a did-you-mean hint when a near-miss field
exists. See ``docs/api_v1.md`` for the migration table.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, fields, replace
from typing import Any, Iterable

from .cloudsim.trace import CalibrationTrace
from .core.decompose import Decomposition, decompose
from .core.options import SolveOptions
from .errors import ValidationError
from .fleet import (
    ClusterSpec,
    FleetConfig,
    FleetReport,
    FleetScheduler,
    FleetSweepReport,
)
from .observability import Instrumentation
from .runtime.config import SessionConfig
from .runtime.session import TraceSession

__all__ = [
    "SessionConfig",
    "SolveConfig",
    "open_session",
    "run_fleet",
    "solve",
    "sweep_fleet",
]

_MB = 1024 * 1024

# Legacy keyword -> the canonical v1.1 field. The remap itself is gone
# (the one-release deprecation window closed); the table survives only to
# point migrating callers at the right spelling in the TypeError message.
_RETIRED_SPELLINGS = {
    "time_step": "window",
    "nsnap": "window",
    "n_snapshots": "window",
    "thresh": "threshold",
    "workers": "n_workers",
}


@dataclass(frozen=True)
class SolveConfig:
    """Settings for a one-shot :func:`solve`.

    ``window`` is the number of leading snapshots to calibrate from
    (``None`` — the default — uses the whole trace). ``solver`` follows
    :class:`~repro.core.options.SolveOptions`' rules.
    """

    nbytes: float = 8.0 * _MB
    window: int | None = None
    solver: str = SolveOptions.solver
    extraction: str = "mean"

    def __post_init__(self) -> None:
        if self.window is not None and int(self.window) < 2:
            raise ValidationError("window must be >= 2 or None")
        SolveOptions(solver=self.solver)


def _resolve(default_cls: type, config: Any, overrides: dict[str, Any]) -> Any:
    """Merge a config object with keyword overrides (canonical or legacy)."""
    if config is None:
        config = default_cls()
    elif not isinstance(config, default_cls):
        raise ValidationError(
            f"config must be a {default_cls.__name__}, got {type(config).__name__}"
        )
    if not overrides:
        return config
    allowed = {f.name for f in fields(default_cls)}
    resolved: dict[str, Any] = {}
    for key, value in overrides.items():
        if key not in allowed:
            raise TypeError(_unknown_keyword_message(default_cls, key, allowed))
        if key in resolved:
            raise TypeError(f"got multiple values for {key!r}")
        resolved[key] = value
    return replace(config, **resolved)


def _unknown_keyword_message(
    default_cls: type, key: str, allowed: set[str]
) -> str:
    """The hard-error text for a keyword no v1.1 config field matches.

    Retired v1 spellings name their canonical replacement outright; any
    other unknown keyword gets a closest-match did-you-mean hint.
    """
    canonical = _RETIRED_SPELLINGS.get(key)
    if canonical is not None and canonical in allowed:
        return (
            f"keyword {key!r} was removed in API v1.1; "
            f"use {canonical!r} for {default_cls.__name__}"
        )
    message = f"unexpected keyword {key!r} for {default_cls.__name__}"
    close = difflib.get_close_matches(key, sorted(allowed), n=1)
    if close:
        message += f"; did you mean {close[0]!r}?"
    return message


def solve(
    trace: CalibrationTrace,
    config: SolveConfig | None = None,
    **overrides: Any,
) -> Decomposition:
    """Decompose *trace* into constant + error components, one shot.

    >>> dec = solve(trace, window=10, solver="apg")
    >>> dec.report.verdict
    'stable'
    """
    cfg = _resolve(SolveConfig, config, overrides)
    count = None if cfg.window is None else int(cfg.window)
    tp = trace.tp_matrix(cfg.nbytes, start=0, count=count)
    return decompose(tp, solver=cfg.solver, extraction=cfg.extraction)


def open_session(
    trace: CalibrationTrace,
    config: SessionConfig | None = None,
    *,
    instrumentation: Instrumentation | None = None,
    **overrides: Any,
) -> TraceSession:
    """Open an Algorithm-1 maintenance session over *trace*.

    >>> session = open_session(trace, window=10, threshold=1.0)
    >>> session.broadcast(root=0)
    """
    cfg = _resolve(SessionConfig, config, overrides)
    return TraceSession(
        trace, **cfg.session_kwargs(), instrumentation=instrumentation
    )


def _coerce_clusters(
    clusters: Iterable[Any],
) -> tuple[ClusterSpec, ...]:
    specs: list[ClusterSpec] = []
    for i, item in enumerate(clusters):
        if isinstance(item, ClusterSpec):
            specs.append(item)
        elif isinstance(item, CalibrationTrace):
            specs.append(ClusterSpec(name=f"cluster-{i}", trace=item))
        elif isinstance(item, tuple) and len(item) == 2:
            name, trace = item
            specs.append(ClusterSpec(name=str(name), trace=trace))
        else:
            raise ValidationError(
                "clusters must be ClusterSpec, CalibrationTrace, or "
                f"(name, trace) pairs; got {type(item).__name__}"
            )
    return tuple(specs)


def run_fleet(
    clusters: Iterable[ClusterSpec | CalibrationTrace | tuple[str, CalibrationTrace]],
    config: FleetConfig | None = None,
    *,
    instrumentation: Instrumentation | None = None,
    serial: bool = False,
    **overrides: Any,
) -> FleetReport:
    """Run many clusters' maintenance loops concurrently; returns the report.

    *clusters* may be :class:`~repro.fleet.ClusterSpec` objects, bare
    traces (auto-named ``cluster-<i>``) or ``(name, trace)`` pairs.
    ``serial=True`` runs the identical plan in-process — the determinism
    oracle and throughput baseline.

    The scheduler self-heals: dead workers are respawned (within
    ``max_worker_restarts``) with their tasks replayed bit-identically,
    failing tasks retry (``max_task_retries`` / ``retry_backoff_s``), and
    ``task_timeout_s`` bounds each attempt. ``on_error="degrade"``
    quarantines a cluster that exhausts its retries into the report
    (check :attr:`~repro.fleet.FleetReport.degraded` and per-cluster
    ``status``) instead of raising — see ``docs/fleet_failures.md``.

    >>> report = run_fleet([("a", trace_a), ("b", trace_b)], n_workers=4)
    >>> report.clusters["a"].verdict
    'stable'
    """
    cfg = _resolve(FleetConfig, config, overrides)
    scheduler = FleetScheduler(
        _coerce_clusters(clusters), cfg, instrumentation=instrumentation
    )
    return scheduler.run_serial() if serial else scheduler.run()


def sweep_fleet(
    clusters: Iterable[ClusterSpec | CalibrationTrace | tuple[str, CalibrationTrace]],
    config: FleetConfig | None = None,
    *,
    instrumentation: Instrumentation | None = None,
    serial: bool = False,
    **overrides: Any,
) -> FleetSweepReport:
    """Decompose every cluster's trailing window once, across workers.

    The one-shot counterpart of :func:`run_fleet`'s per-cluster sessions:
    one sweep solves each cluster's trailing ``window`` TP-matrix. Workers
    take shards of up to ``batch_size`` same-shape windows and solve them
    one at a time, each exactly as ``decompose(tp, solver=solver)`` would,
    so per-cluster ``P_D`` is bit-identical to that single solve: one
    solver loop whose SVT kernel the window's shape picks.
    ``serial=True`` runs the identical shard plan in-process — the
    determinism oracle and the speedup baseline. The same supervision as
    :func:`run_fleet` applies (worker respawn, shard retries, deadlines,
    ``on_error="degrade"`` quarantine).

    >>> report = sweep_fleet([("a", trace_a), ("b", trace_b)], n_workers=4)
    >>> report.clusters["a"].verdict
    'stable'
    """
    cfg = _resolve(FleetConfig, config, overrides)
    scheduler = FleetScheduler(
        _coerce_clusters(clusters), cfg, instrumentation=instrumentation
    )
    return scheduler.run_sweep_serial() if serial else scheduler.run_sweep()
