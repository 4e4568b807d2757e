"""Counters, timers and per-solve span records.

An :class:`Instrumentation` object is a passive sink: components *emit*
counts, timed sections and :class:`SolveSpan` records into it, and a human
(or a test) reads them back either field-by-field or through
:meth:`Instrumentation.report`. It deliberately has no I/O and no global
state of its own — activation scoping lives in
:mod:`repro.observability` (:func:`~repro.observability.instrumented`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Iterator

__all__ = ["SolveSpan", "Instrumentation"]


@dataclass(frozen=True, slots=True)
class SolveSpan:
    """One RPCA solve, as observed at the :func:`~repro.core.solvers.solve_rpca` boundary.

    Attributes
    ----------
    solver:
        Registry name of the backend that ran.
    rows, cols:
        Shape of the decomposed matrix.
    iterations:
        Iterations the solver reported.
    rank:
        Rank of the recovered low-rank component.
    residual:
        Final relative residual the solver reported.
    converged:
        Whether the solver met its stopping criterion.
    seconds:
        Wall-clock time of the solve.
    context:
        Free-form label of who requested the solve (e.g. ``"engine"``).
    """

    solver: str
    rows: int
    cols: int
    iterations: int
    rank: int
    residual: float
    converged: bool
    seconds: float
    context: str = ""


def _span_from_state(span: dict[str, Any]) -> SolveSpan:
    """A span from :meth:`Instrumentation.state_dict` output; the ``warm``
    flag that older states carry is dropped (every solve is cold now)."""
    return SolveSpan(**{k: v for k, v in span.items() if k != "warm"})


class Instrumentation:
    """A named bundle of counters, accumulated timers and solve spans."""

    __slots__ = ("name", "counters", "timers", "spans")

    def __init__(self, name: str = "default") -> None:
        self.name = str(name)
        self.counters: dict[str, int] = {}
        self.timers: dict[str, float] = {}
        self.spans: list[SolveSpan] = []

    # -- emission ---------------------------------------------------------
    def count(self, name: str, inc: int = 1) -> None:
        """Increment counter *name* by *inc*."""
        self.counters[name] = self.counters.get(name, 0) + int(inc)

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate *seconds* under timer *name*."""
        self.timers[name] = self.timers.get(name, 0.0) + float(seconds)

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Time the enclosed block into timer *name* (re-entrant, accumulating)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    def record_span(self, span: SolveSpan) -> None:
        """Append one solve-span record."""
        self.spans.append(span)

    def reset(self) -> None:
        """Drop all recorded data (the name is kept)."""
        self.counters.clear()
        self.timers.clear()
        self.spans.clear()

    # -- persistence ------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot of everything recorded so far.

        Used by session checkpoints so counters, timers and solve spans
        survive a crash: a recovered session's instrumentation reflects the
        whole lifetime, not just the post-recovery stretch.
        """
        return {
            "name": self.name,
            "counters": dict(self.counters),
            "timers": dict(self.timers),
            "spans": [asdict(s) for s in self.spans],
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Inverse of :meth:`state_dict`; replaces all recorded data."""
        self.name = str(state["name"])
        self.counters = {str(k): int(v) for k, v in state["counters"].items()}
        self.timers = {str(k): float(v) for k, v in state["timers"].items()}
        self.spans = [_span_from_state(span) for span in state["spans"]]

    def merge(self, other: "Instrumentation | dict[str, Any]") -> None:
        """Fold another sink's recorded data into this one (additive).

        Counters and timers accumulate, spans append. The fleet scheduler
        uses this to aggregate per-worker/per-cluster instrumentation
        (shipped across process boundaries as :meth:`state_dict` payloads)
        into one fleet-level report; the merged-in sink's name is dropped.
        """
        state = other.state_dict() if isinstance(other, Instrumentation) else other
        for key, value in state["counters"].items():
            self.count(str(key), int(value))
        for key, value in state["timers"].items():
            self.add_time(str(key), float(value))
        for span in state["spans"]:
            self.record_span(
                span if isinstance(span, SolveSpan) else _span_from_state(span)
            )

    # -- aggregates -------------------------------------------------------
    @property
    def solves(self) -> int:
        return len(self.spans)

    @property
    def solve_seconds(self) -> float:
        return sum(s.seconds for s in self.spans)

    @property
    def solve_iterations(self) -> int:
        return sum(s.iterations for s in self.spans)

    # -- reporting --------------------------------------------------------
    def report(self) -> str:
        """Human-readable multi-line summary of everything recorded."""
        lines = [f"instrumentation report [{self.name}]"]
        if self.spans:
            lines.append(
                f"  solves: {self.solves}, "
                f"{self.solve_iterations} iterations, "
                f"{self.solve_seconds * 1e3:.1f} ms total"
            )
            header = (
                f"  {'#':>3} {'solver':<14} {'shape':<12} "
                f"{'iters':>5} {'rank':>4} {'residual':>10} {'ms':>8}  context"
            )
            lines.append(header)
            for i, s in enumerate(self.spans):
                flag = "" if s.converged else " (not converged)"
                lines.append(
                    f"  {i:>3} {s.solver:<14} {s.rows}x{s.cols:<9} "
                    f"{s.iterations:>5} {s.rank:>4} {s.residual:>10.3e} "
                    f"{s.seconds * 1e3:>8.2f}  {s.context}{flag}"
                )
        else:
            lines.append("  solves: none recorded")
        if self.counters:
            lines.append("  counters:")
            for name in sorted(self.counters):
                lines.append(f"    {name:<36} {self.counters[name]}")
        if self.timers:
            lines.append("  timers:")
            for name in sorted(self.timers):
                lines.append(f"    {name:<36} {self.timers[name] * 1e3:.2f} ms")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Instrumentation(name={self.name!r}, solves={self.solves}, "
            f"counters={len(self.counters)}, timers={len(self.timers)})"
        )
