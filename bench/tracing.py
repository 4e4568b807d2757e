"""Span tracing for the benchmark's traced run (``--trace 1``).

The tracer wraps public functions of the program at the names its callers
look them up by (``repro.runtime.session.fnf_tree``,
``DecompositionEngine.calibrate``, ``CheckpointStore.save``, ...) and keeps
one span per call in memory: name, start, end, parent span and operation
id. Spans are written out only when the run ends. Nothing inside ``src/``
changes; the wrappers are removed again by :meth:`Tracer.restore`.

A layer's *self* time is its spans' duration minus the time covered by
their child spans.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: Span of one operation the benchmark's caller waited for.
OP_SPAN = "runtime.session.op"


class Tracer:
    """In-memory span recorder; inactive until :meth:`start`."""

    def __init__(self) -> None:
        # [name, start, end, parent index, op id]
        self.spans: list[list[Any]] = []
        self.sizes: dict[str, list[int]] = {}
        self.active = False
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[Any, str, Any, bool]] = []

    def start(self) -> None:
        self.active = True

    def pause(self) -> None:
        self.active = False

    # -- recording ------------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.active:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """The span of operation *op_id*; every span inside it carries the id."""
        self._op = op_id
        try:
            with self.span(OP_SPAN):
                yield
        finally:
            self._op = -1

    def traced(
        self, fn: Callable, name: str, size_of: Callable[[Any], int] | None = None
    ) -> Callable:
        """*fn* recording one span per call while the tracer is active."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if size_of is not None:
                self.sizes.setdefault(name, []).append(size_of(result))
            return result

        return wrapper

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        size_of: Callable[[Any], int] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with its traced version."""
        original = getattr(owner, attr)
        own = attr in vars(owner)
        setattr(owner, attr, self.traced(original, name, size_of))
        self._patches.append((owner, attr, original, own))

    def restore(self) -> None:
        """Undo every :meth:`wrap`."""
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- program call sites -------------------------------------------------
    def install(self) -> None:
        """Wrap the layer boundaries of the Algorithm-1 call path."""
        import repro.runtime.session as session_mod
        from repro.core.engine import DecompositionEngine
        from repro.core.maintenance import MaintenanceController
        from repro.persistence import CheckpointStore, SnapshotJournal

        for attr, name in (
            ("fnf_tree", "collectives.fnf_tree"),
            ("collective_time", "collectives.exec_model"),
            ("weights_to_alphabeta", "collectives.exec_model"),
            ("greedy_mapping", "mapping.greedy_mapping"),
            ("mapping_total_time", "mapping.evaluate"),
            ("bandwidth_from_weights", "mapping.evaluate"),
            ("capture_session_state", "persistence.capture"),
        ):
            self.wrap(session_mod, attr, name)
        self.wrap(session_mod.TraceSession, "weight_matrix", "runtime.session.weight_matrix")
        self.wrap(MaintenanceController, "observe", "core.maintenance.observe")
        for attr, name in (
            ("snapshot_residual", "core.engine.snapshot_residual"),
            ("calibrate", "core.engine.calibrate"),
            ("window", "core.engine.window"),
            ("solve", "core.engine.solve"),
            ("stream_fold", "core.streaming.stream_fold"),
        ):
            self.wrap(DecompositionEngine, attr, name)
        self.wrap(SnapshotJournal, "append_json", "persistence.journal")
        self.wrap(CheckpointStore, "save", "persistence.checkpoint", os.path.getsize)

    def watch_session(self, session: Any) -> None:
        """Wrap the session's regime detector, whose class is chosen at run time."""
        detector = getattr(session, "regime_detector", None)
        if detector is not None:
            self.wrap(type(detector), "observe", "core.detectors.observe")

    # -- aggregation --------------------------------------------------------
    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy`` seconds and ``self`` seconds."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            row = out.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0})
            row["calls"] += 1
            row["busy"] += end - start
            row["self"] += end - start - child
        return out

    # -- output ---------------------------------------------------------------
    def write(self, directory: Path) -> None:
        """Write ``spans.jsonl`` and a Chrome trace-event ``trace.json``."""
        directory.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(directory / "spans.jsonl", "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start - t0, "end": end - t0,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )
        events = [
            {
                "name": name, "ph": "X", "pid": 0, "tid": 0,
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "args": {"op": op},
            }
            for name, start, end, _, op in self.spans
        ]
        with open(directory / "trace.json", "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured here."""
    def noop() -> None:
        return None

    tracer = Tracer()
    tracer.start()
    wrapped = tracer.traced(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def format_table(layers: dict[str, dict[str, float]]) -> str:
    """Per-layer table: calls, busy and self seconds, share of operation time."""
    total = layers.get(OP_SPAN, {}).get("busy", 0.0)
    lines = [f"{'layer':<34} {'calls':>8} {'busy s':>10} {'self s':>10} {'share':>7}"]
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self"]):
        share = row["self"] / total if total else 0.0
        lines.append(
            f"{name:<34} {row['calls']:>8} {row['busy']:>10.4f} "
            f"{row['self']:>10.4f} {share:>7.1%}"
        )
    return "\n".join(lines)
