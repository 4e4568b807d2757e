"""Column panels of the unmasked APG loop, and the thread that runs one.

A paper-scale APG iteration is a handful of passes over a ``38416 × 10``
tall carrier (the TP-matrix transposed). They split cleanly along the long
side: the shrink GEMM, the blocked sweep and the partial Gram matrix of one
contiguous row range need nothing from another until the ``10 × 10`` Gram
partials are added up. :func:`panel_bounds` cuts the long side into at most
two such panels, from the shape alone, and :func:`run_panels` runs the
second one on a persistent helper thread while the caller runs the first.

Which thread runs a panel never changes what it computes, so a solve is
bitwise the same with one thread or two; only the panel count, a function
of the shape, could, and it is fixed per shape.

Thread budget
-------------
:func:`thread_budget` is the number of CPUs this process may use
(``os.sched_getaffinity``) unless :func:`set_thread_budget` fixed it; fleet
workers fix it at ``max(1, cpus // n_workers)`` so that the workers do not
oversubscribe the cores. With a budget below two every panel runs on the
calling thread. The helper is one daemon thread per process, created on
first use and forgotten in a forked child (which must start its own).

Only the calling thread emits instrumentation: the sinks of
:mod:`repro.observability` are process-global and not thread-safe, so a
panel step returns its timings as values instead.
"""

from __future__ import annotations

import os
import threading
from queue import SimpleQueue
from typing import Any, Callable

__all__ = [
    "SPLIT_MIN_ROWS",
    "panel_bounds",
    "run_panels",
    "set_thread_budget",
    "thread_budget",
]

#: Long side from which a solve splits into two panels. The 196-instance
#: TP-matrix (10 × 38416) splits; the fleet's 64-instance one (10 × 4096),
#: where a second thread measured 0.89-0.99x, does not.
SPLIT_MIN_ROWS = 16384


def panel_bounds(rows: int) -> tuple[tuple[int, int], ...]:
    """``(start, stop)`` row ranges of the panels of a *rows*-long carrier."""
    rows = int(rows)
    if rows < SPLIT_MIN_ROWS:
        return ((0, rows),)
    half = rows // 2
    return ((0, half), (half, rows))


_budget: int | None = None


def set_thread_budget(threads: int | None) -> None:
    """Fix the threads a solve may use in this process; ``None`` restores
    the default (the CPUs in this process's affinity mask)."""
    global _budget
    if threads is not None and int(threads) < 1:
        raise ValueError(f"thread budget must be >= 1, got {threads}")
    _budget = None if threads is None else int(threads)


def thread_budget() -> int:
    """Threads a solve may use: the fixed budget, else the affinity mask's CPUs."""
    if _budget is not None:
        return _budget
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1


class _Helper:
    """A daemon thread that runs one submitted callable at a time."""

    def __init__(self) -> None:
        self.busy = threading.Lock()  # held by the solve using the helper
        self._jobs: SimpleQueue = SimpleQueue()
        self._done: SimpleQueue = SimpleQueue()
        threading.Thread(target=self._serve, name="repro-apg-panel", daemon=True).start()

    def _serve(self) -> None:
        while True:
            job = self._jobs.get()
            try:
                reply = (True, job())
            except BaseException as exc:  # handed back to the caller
                reply = (False, exc)
            # Drop the job before waiting for the next one: it holds the
            # solve's buffers, which must not outlive the solve.
            job = None
            self._done.put(reply)
            reply = None

    def submit(self, job: Callable[[], Any]) -> None:
        self._jobs.put(job)

    def wait(self) -> tuple[bool, Any]:
        """``(ok, value)`` of the submitted job: its result or its exception."""
        return self._done.get()


_helper: _Helper | None = None
_helper_lock = threading.Lock()


def _get_helper() -> _Helper:
    global _helper
    with _helper_lock:
        if _helper is None:
            _helper = _Helper()
        return _helper


def _forget_helper() -> None:
    """Drop the helper (and its lock): its thread does not exist here."""
    global _helper, _helper_lock
    _helper = None
    _helper_lock = threading.Lock()


def _discard(helper: _Helper) -> None:
    """Never hand *helper* out again (a new one starts on next use)."""
    global _helper
    with _helper_lock:
        if _helper is helper:
            _helper = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def run_panels(step: Callable[[int], Any], count: int) -> tuple[list[Any], bool]:
    """``[step(0), ..., step(count - 1)]``, and whether the helper ran one.

    With two panels and a thread budget of at least two, ``step(1)`` runs
    on the helper thread while the caller runs ``step(0)``; otherwise (or
    while another thread's solve holds the helper) the caller runs every
    step in order. Either way both steps have finished when this returns
    or raises.
    """
    if count > 2:
        raise ValueError(f"at most two panels, got {count}")
    if count < 2 or thread_budget() < 2:
        return [step(p) for p in range(count)], False
    helper = _get_helper()
    if not helper.busy.acquire(blocking=False):
        return [step(p) for p in range(count)], False
    try:
        helper.submit(lambda: step(1))
        try:
            first = step(0)
        finally:
            try:
                ok, second = helper.wait()
            except BaseException:
                _discard(helper)  # interrupted with its reply still pending
                raise
        if not ok:
            raise second
        return [first, second], True
    finally:
        helper.busy.release()
