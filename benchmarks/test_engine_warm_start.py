"""Warm-started re-calibration vs the historical cold path.

Algorithm 1 re-solves rolling TP-matrix windows for as long as the session
lives; the :class:`~repro.core.engine.DecompositionEngine` seeds each solve
from the previous window's solution. The benchmark replays the same rolling
window sequence warm and cold and records wall time; the accompanying
assertions pin the actual point of the feature — fewer solver iterations on
every re-solve. Only APG is replayed: IALM takes no warm start.
"""

import pytest

from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.core.engine import DecompositionEngine
from repro.core.options import SolveOptions
from repro.observability import Instrumentation

MB = 1024 * 1024
WINDOWS = [(0, 10), (2, 12), (4, 14), (6, 16), (8, 18)]


@pytest.fixture(scope="module")
def trace_32():
    return generate_trace(TraceConfig(n_machines=32, n_snapshots=20), seed=32)


def _replay(trace, solver, warm_start):
    instr = Instrumentation("bench")
    eng = DecompositionEngine(
        trace, nbytes=8 * MB,
        options=SolveOptions(solver=solver, warm_start=warm_start),
        instrumentation=instr,
    )
    for start, stop in WINDOWS:
        eng.solve(eng.window(start, stop))
    return instr


@pytest.mark.parametrize("solver", ["apg"])
@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_rolling_recalibration_runtime(benchmark, trace_32, solver, warm):
    instr = benchmark(_replay, trace_32, solver, warm)
    assert instr.solves == len(WINDOWS)
    assert instr.warm_solves == (len(WINDOWS) - 1 if warm else 0)


@pytest.mark.parametrize("solver", ["apg"])
def test_warm_replay_iterates_less(trace_32, solver):
    warm = _replay(trace_32, solver, True)
    cold = _replay(trace_32, solver, False)
    assert warm.solve_iterations < cold.solve_iterations
    # Every re-solve (not just the total) should be no worse than cold.
    for w, c in zip(warm.spans[1:], cold.spans[1:]):
        assert w.iterations <= c.iterations
